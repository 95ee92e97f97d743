"""intervaldyn benchmark: one seeded workload, measured cold and warm.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit-stream --seed 3 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: the workload's
argv list as cold ``python -m intervaldyn`` processes (what a CLI user
pays) and through ``intervaldyn.cli.main`` in this warm process (what a
library user pays), plus cold ``import intervaldyn.cli`` as the set-up
time. --trace 1 measures the per-layer metrics: the warm list again with
spans and counters recorded around each module's public functions (see
spans.py), alternated with untraced passes to give the tracing overhead.

Every invocation's output is checked (workloads.py); at the default seed
its sha256 must also match golden.json. The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; a summary, the
machine and any failures go to stderr, and the full record (per-pass
values, argv, spans) to .perfbench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
LAUNCHER = os.path.join(HERE, "launcher.py")

DEFAULT_SEED = 0
SETUP_FIRST = 3  # cold imports before the first pass; one more per pass
IMPORTTIME_REPEATS = 7
MIN_PASSES = 3
MAX_RUN_S = 120.0  # stop starting passes after this, to end within 180 s
CHILD_TIMEOUT_S = 30.0

END_TO_END = {"cli_wall_s": "s", "inproc_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "interval.snap.calls": "count",
    "interval.snap.moved": "count",
    "maps.orbit.self_s": "s",
    "analysis.cobweb_path.self_s": "s",
    "chaos_rng.uniformize.self_s": "s",
    "chaos_rng.transform_to.self_s": "s",
    "chaos_rng.ks_distance.self_s": "s",
    "cli.to_json.self_s": "s",
    "cli.to_csv.self_s": "s",
    "render.cobweb_svg.self_s": "s",
    "cli.out_bytes": "B",
    "maps.iterate.calls": "count",
    "maps.iterate.steps": "count",
    "maps.eval_map.calls": "count",
    "homeos.apply_homeo.calls": "count",
    "homeos.invert_homeo.calls": "count",
    "closed_form.crosscheck.self_s": "s",
    "closed_form.crosscheck.step_ratio": "ratio",
    "conjugacy.verify_conjugacy.self_s": "s",
    "conjugacy.verify_semiconjugacy.self_s": "s",
    "conjugacy.periodicity_order.self_s": "s",
    "conjugacy.propagate_partial_conjugacy.self_s": "s",
    "homeos.bisect.calls": "count",
    "homeos.bisect.evals": "count",
    "homeos.bisect.cap_hits": "count",
    "homeos.bisect.tol_exits": "count",
    "homeos.bisect.self_s": "s",
    "analysis.zero_preimage_set.calls": "count",
    "analysis.zero_preimage_set.self_s": "s",
    "analysis.preimage.level_ratio": "ratio",
    "cli.parse_args.self_s": "s",
    "cli.run.self_s": "s",
    "cli.main.self_s": "s",
    "startup.numpy_import_s": "s",
    "startup.pkg_import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- processes ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("CONJUGATE_SEED", None)
    env.pop("PYTHONSTARTUP", None)
    return env


class Launcher:
    """The small process every cold child is spawned from (launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def spawn(self, argv: list[str], out_path: str, err_path: str) -> tuple[int, float, float]:
        """Run one child to completion; returns (exit code, wall s, max RSS MB)."""
        self.proc.stdin.write(json.dumps([argv, out_path, err_path, CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher stopped")
        code, wall, rss = json.loads(line)
        return code, wall, rss

    def import_time(self, rundir: str, *flags: str) -> tuple[float, str]:
        """One cold ``import intervaldyn.cli``; returns (wall s, stderr path)."""
        out, err = os.path.join(rundir, "import.out"), os.path.join(rundir, "import.err")
        code, wall, _ = self.spawn([sys.executable, *flags, "-c", "import intervaldyn.cli"], out, err)
        if code != 0:
            raise BenchError(f"import intervaldyn.cli failed: {_tail(err)}")
        return wall, err

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the launcher already stopped
            pass
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


def import_breakdown(launcher: Launcher, rundir: str) -> tuple[float, float]:
    """Median numpy and package import times from -X importtime."""
    numpy_s, pkg_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, err = launcher.import_time(rundir, "-X", "importtime")
        with open(err, encoding="utf-8") as handle:
            numpy_us, pkg_us = _parse_importtime(handle)
        numpy_s.append(numpy_us / 1e6)
        pkg_s.append(max(pkg_us - numpy_us, 0) / 1e6)
    return statistics.median(numpy_s), statistics.median(pkg_s)


def _parse_importtime(lines) -> tuple[int, int]:
    """(numpy cumulative us, intervaldyn top-level cumulative us)."""
    numpy_us = pkg_us = 0
    for line in lines:
        parts = line.rstrip("\n").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, field = int(parts[1]), parts[2]
        name = field.strip()
        top_level = len(field) - len(field.lstrip()) <= 1
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        elif top_level and (name == spans.PACKAGE or name.startswith(spans.PACKAGE + ".")):
            pkg_us += cumulative
    return numpy_us, pkg_us


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        lines = handle.read().strip().splitlines()
    return lines[-1] if lines else "(no output)"


# --- passes -------------------------------------------------------------------


def _paths(inv: workloads.Invocation, outdir: str) -> tuple[str, str, str]:
    base = os.path.join(outdir, inv.label)
    return base + inv.suffix, base + ".stdout", base + ".stderr"


def _output(inv: workloads.Invocation, outdir: str) -> bytes:
    output, stdout, _ = _paths(inv, outdir)
    with open(output if inv.writes_file else stdout, "rb") as handle:
        return handle.read()


def _clear(invs, outdir: str) -> None:
    """Remove the previous pass's output files, so none is checked twice."""
    for inv in invs:
        for path in _paths(inv, outdir):
            if os.path.exists(path):
                os.remove(path)


def cold_pass(launcher: Launcher, invs, outdir: str) -> tuple[float, float, list]:
    """The argv list as cold processes; returns (wall s, peak child RSS MB,
    [(exit code, stderr path)])."""
    _clear(invs, outdir)
    codes, peak, wall = [], 0.0, 0.0
    for inv in invs:
        output, stdout, stderr = _paths(inv, outdir)
        argv = [sys.executable, "-m", "intervaldyn", *inv.resolve(output)]
        code, seconds, rss = launcher.spawn(argv, stdout, stderr)
        wall += seconds
        peak = max(peak, rss)
        codes.append((code, stderr))
    return wall, peak, codes


def inproc_pass(cli, invs, outdir: str, before_each=None) -> tuple[float, list]:
    """The argv list through cli.main in this process; stdout and stderr
    go to files, as for a cold process."""
    _clear(invs, outdir)
    codes = []
    saved = sys.stdout, sys.stderr
    gc.collect()  # start every pass without the previous pass's garbage
    started = time.perf_counter()
    for i, inv in enumerate(invs):
        output, stdout, stderr = _paths(inv, outdir)
        if before_each is not None:
            before_each(i)
        with open(stdout, "w", encoding="utf-8") as out, open(stderr, "w", encoding="utf-8") as err:
            sys.stdout, sys.stderr = out, err
            try:
                code = cli.main(inv.resolve(output))
            except Exception as exc:  # an uncaught error fails this invocation only
                print(f"uncaught {type(exc).__name__}: {exc}", file=err)
                code = -1
            finally:
                sys.stdout, sys.stderr = saved
        codes.append((code, stderr))
    return time.perf_counter() - started, codes


class Checker:
    """Checks every output; at the default seed also its golden digest, and
    in every pass that warm and cold runs wrote the same bytes."""

    def __init__(self, invs, golden):
        self.invs = invs
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.out_bytes = 0

    def check(self, mode: str, outdir: str, codes) -> None:
        self.out_bytes = 0
        for inv, (code, stderr) in zip(self.invs, codes):
            self.attempted += 1
            try:
                data = _output(inv, outdir)
                self.out_bytes += len(data)
                problem = inv.check(code, data) if code in (0, 1) else f"exit code {code}"
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                data, problem = b"", f"unreadable output: {type(exc).__name__}: {exc}"
            if problem and code not in (0, 1):
                problem += f" ({_tail(stderr)})"
            digest = hashlib.sha256(data).hexdigest()
            if problem is None and self.golden is not None and self.golden.get(inv.label) != digest:
                problem = "output differs from the golden digest"
            first = self.digests.setdefault(inv.label, digest)
            if problem is None and first != digest:
                problem = "output differs between passes"
            if problem is not None:
                self.failures.append(f"{mode} {inv.label}: {problem}")


# --- metrics ------------------------------------------------------------------


def end_to_end(launcher, cli, invs, checker: Checker, rundir: str, seconds: int,
               began: float) -> tuple[dict, dict]:
    # the first, untimed import writes the bytecode cache
    launcher.import_time(rundir)
    setup = [launcher.import_time(rundir)[0] for _ in range(SETUP_FIRST)]
    cold_dir, warm_dir = os.path.join(rundir, "cold"), os.path.join(rundir, "inproc")
    os.makedirs(cold_dir)
    os.makedirs(warm_dir)
    cold, warm, rss = [], [], []
    measuring = time.perf_counter()
    while True:
        # alternate which mode goes first, so drift in machine load hits both
        for mode in (("cold", "inproc") if len(cold) % 2 == 0 else ("inproc", "cold")):
            if mode == "cold":
                setup.append(launcher.import_time(rundir)[0])
                wall, peak, codes = cold_pass(launcher, invs, cold_dir)
                cold.append(wall)
                rss.append(peak)
                checker.check(mode, cold_dir, codes)
            else:
                wall, codes = inproc_pass(cli, invs, warm_dir)
                warm.append(wall)
                checker.check(mode, warm_dir, codes)
        now = time.perf_counter()
        if (now - measuring >= seconds and len(cold) >= MIN_PASSES) or now - began >= MAX_RUN_S:
            break
    metrics = {
        "cli_wall_s": statistics.median(cold),
        "inproc_s": statistics.median(warm),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    raw = {"setup_s": setup, "cli_wall_s": cold, "inproc_s": warm, "peak_rss_mb": rss}
    return metrics, raw


def per_layer(launcher, cli, invs, checker: Checker, rundir: str, seconds: int,
              began: float) -> tuple[dict, dict]:
    numpy_s, pkg_s = import_breakdown(launcher, rundir)
    outdir = os.path.join(rundir, "inproc")
    os.makedirs(outdir)
    untraced, traced, layers, tracers = [], [], [], []
    measuring = time.perf_counter()
    while True:
        wall, codes = inproc_pass(cli, invs, outdir)
        untraced.append(wall)
        checker.check("inproc", outdir, codes)

        tracer = spans.Tracer()
        levels = [0] * (len(invs) + 1)

        def before_each(i: int, tracer=tracer, levels=levels) -> None:
            tracer.invocation = i
            levels[i] = tracer.counts["analysis.preimage.levels"]

        patches = spans.install(tracer)
        try:
            wall, codes = inproc_pass(cli, invs, outdir, before_each)
        finally:
            patches.uninstall()
        levels[-1] = tracer.counts["analysis.preimage.levels"]
        traced.append(wall)
        checker.check("traced", outdir, codes)
        tracers.append(tracer)
        layers.append(_layer_values(tracer, invs, levels, checker.out_bytes))
        now = time.perf_counter()
        if (now - measuring >= seconds and len(traced) >= MIN_PASSES) or now - began >= MAX_RUN_S:
            break
    if patches.missing:
        print(f"not traced (absent from the program): {', '.join(patches.missing)}", file=sys.stderr)
    with open(os.path.join(rundir, "spans.csv"), "w", encoding="utf-8") as handle:
        handle.write("pass,name,start,end,parent,invocation\n")
        for index, tracer in enumerate(tracers):
            tracer.write(handle, index)
    metrics = {name: statistics.median(values[name] for values in layers) for name in PER_LAYER
               if name not in ("startup.numpy_import_s", "startup.pkg_import_s", "trace.overhead_s")}
    metrics["startup.numpy_import_s"] = numpy_s
    metrics["startup.pkg_import_s"] = pkg_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    raw = {"untraced_inproc_s": untraced, "traced_inproc_s": traced, "passes": layers}
    return metrics, raw


def _layer_values(tracer: spans.Tracer, invs, levels: list[int], out_bytes: int) -> dict:
    counts, self_s = tracer.counts, tracer.self_seconds()
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    grid = counts.get("closed_form.crosscheck.grid_steps", 0)
    values["closed_form.crosscheck.step_ratio"] = (
        counts.get("closed_form.crosscheck.steps", 0) / grid if grid else 0.0)
    # the worst invocation: levels computed (_dedup_sorted calls) per level
    # of depth requested
    ratios = [(levels[i + 1] - levels[i]) / inv.depth for i, inv in enumerate(invs) if inv.depth]
    values["analysis.preimage.level_ratio"] = max(ratios, default=0.0)
    values["cli.out_bytes"] = out_bytes
    return values


# --- machine and entry point --------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a plain checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    package = os.path.join(SRC, "intervaldyn")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                src.update(name.encode() + b"\0" + handle.read())
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": src.hexdigest()}


def load_cli():
    """Import intervaldyn from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "intervaldyn", "cli.py")):
        raise BenchError(f"no src/intervaldyn/cli.py under {ROOT}; run from a checkout root")
    sys.path.insert(0, SRC)
    import intervaldyn.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported intervaldyn from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"store this run's output digests (needs --seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    # before this process grows: see launcher.py
    launcher = Launcher()
    try:
        cli = load_cli()
        os.environ.pop("CONJUGATE_SEED", None)
        invs = workloads.build(args.workload, args.seed)
        golden = None
        if args.seed == DEFAULT_SEED and not args.write_golden:
            with open(GOLDEN, encoding="utf-8") as handle:
                golden = json.load(handle)[args.workload]
        rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        checker = Checker(invs, golden)
        measure = per_layer if args.trace else end_to_end
        metrics, raw = measure(launcher, cli, invs, checker, rundir, args.seconds, began)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "argv": [list(inv.argv) for inv in invs],
        "attempted": checker.attempted, "failed": len(checker.failures),
        "failures": checker.failures, "metrics": metrics, "raw": raw,
    }
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for mode in ("cold", "inproc"):
        shutil.rmtree(os.path.join(rundir, mode), ignore_errors=True)
    if args.write_golden:
        if args.seed != DEFAULT_SEED or checker.failures:
            print("perfbench: golden digests need a clean run at the default seed", file=sys.stderr)
            return 2
        _write_golden(args.workload, checker.digests)

    print(f"{args.workload} seed={args.seed} machine={json.dumps(record['machine'])}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:46s} {value:>16.6g} {units[name]}", file=sys.stderr)
    print(f"  failed {len(checker.failures)} of {checker.attempted} invocations", file=sys.stderr)
    for failure in checker.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _write_golden(workload: str, digests: dict) -> None:
    try:
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    except FileNotFoundError:
        golden = {}
    golden[workload] = digests
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
