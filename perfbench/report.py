"""Run the benchmark over workloads and seeds and print one table.

From the root of a checkout:

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --seeds 10           # seeds 0..9
    python3 perfbench/report.py --trace 1            # per-layer metrics

Each (workload, seed) is one ``perfbench/run.py`` process, exactly as in
BENCHMARK.json, whose workloads and run_seconds it reads. For every
metric the table gives the median over seeds and, with two or more
seeds, the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.
failed_frac is the share of invocations whose output check failed. The
exit code is 1 when any invocation failed or any run printed no result.
Every result line is also saved to .perfbench_run/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SAVED = os.path.join(".perfbench_run", "report.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="run seeds 0..N-1")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    results = {name: [] for name in names}
    ok = True
    for name in names:
        for seed in seeds:
            result = run_once(name, seed, seconds, args.trace)
            ok = ok and result is not None and result["failed"] == 0
            if result is not None:
                results[name].append(result)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"# {name} seed {seed}: failed {result['failed']}/{result['attempted']} "
                      f"{values if len(values) < 400 else ''}", flush=True)

    os.makedirs(os.path.dirname(SAVED), exist_ok=True)
    with open(SAVED, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    metrics: dict[str, str] = {}
    for runs in results.values():
        for r in runs:
            for key, m in r["metrics"].items():
                metrics.setdefault(key, m["unit"])
    width = max(len(k) for k in list(metrics) + ["failed_frac"]) + 2
    print(f"{'metric':{width}s} {'unit':6s} " + " ".join(f"{n:>26s}" for n in names))
    for key, unit in metrics.items():
        cells = []
        for name in names:
            values = [r["metrics"][key]["value"] for r in results[name] if key in r["metrics"]]
            cells.append(_cell(values))
        print(f"{key:{width}s} {unit:6s} " + " ".join(f"{c:>26s}" for c in cells))
    fracs = []
    for name in names:
        attempted = sum(r["attempted"] for r in results[name])
        failed = sum(r["failed"] for r in results[name])
        fracs.append(f"{failed / attempted:.4g} ({failed}/{attempted})" if attempted else "no result")
    print(f"{'failed_frac':{width}s} {'1':6s} " + " ".join(f"{c:>26s}" for c in fracs))
    return 0 if ok else 1


def _cell(values: list[float]) -> str:
    if not values:
        return "-"
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = f"{(q3 - q1) / median:.1%}" if median else "n/a"
    return f"{median:.6g} [{spread}]"


if __name__ == "__main__":
    sys.exit(main())
