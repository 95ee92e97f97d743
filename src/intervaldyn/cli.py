"""Command-line front end.

Every library capability is exposed as a subcommand with deterministic
machine-readable output: identical invocations produce byte-identical
JSON/CSV (floats are printed with 17 significant digits, lowercase
exponent, so text round-trips losslessly through binary64).

Exit codes: 0 success; 1 a verification subcommand exceeded its
tolerance (or a propagation found a conflict); 2 usage error; 3 domain
or parameter error.

Map specs: logistic, tent, halftent, quadratic, doubling, cosine,
sinsq, hyperbola:e=<v>,a=<v>, verhulst:m=<v>,n=<v>,
pwl:<x0>,<y0>;<x1>,<y1>;..., conj:<base>|<homeo> (conj: nests).
Homeo specs: ulam, alpha, affine:p=<v>,q=<v>, power:g=<v>,
mobius:a=<v>,b=<v>, reflect, pwlh:<x0>,<y0>;..., and compositions
written "outer o inner" ("a o b o c" is "a o (b o c)"; parentheses
group). Parameterless names take no arguments, and a key may not
repeat. Every spec the output echoes (describe()) parses back to the
same map or coordinate change.

The environment variable CONJUGATE_SEED overrides the default ergodic
seed of the rng subcommands; an explicit --seed beats both.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import analysis, chaos_rng, closed_form, conjugacy, maps
from .errors import IntervalDynError, ParameterError, RangeError, UsageError
from .homeos import parse_homeo_spec
from .maps import parse_map_spec
from .render import cobweb_svg

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

SEED_ENV_VAR = "CONJUGATE_SEED"


# --- deterministic text output ----------------------------------------------


def fmt_float(v: float) -> str:
    """17 significant digits, lowercase exponent: lossless in binary64."""
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "Infinity"
    if v == float("-inf"):
        return "-Infinity"
    return format(v, ".17g")


def to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    s = fmt_float(v) if isinstance(v, float) else str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed invocation: one subcommand plus its parameters."""

    command: str
    params: dict = field(default_factory=dict)
    fmt: str = "json"
    output: Optional[str] = None
    timing: bool = False


# argparse alone takes "--x0 -1e-3" for an unknown option -1e-3
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # one-line diagnostics, no hard exit
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    common.add_argument("--timing", action="store_true", help="include measured elapsed_ms")

    p = _Parser(prog="intervaldyn", description="one-dimensional interval-map dynamics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    for name, text in (("iterate", "n-fold map application"), ("orbit", "iterate sequence")):
        sp = sub.add_parser(name, parents=[common], help=text)
        sp.add_argument("--map", required=True)
        sp.add_argument("--x0", type=float, required=True)
        sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("fixed-points", parents=[common], help="solutions of f(x) = x")
    sp.add_argument("--map", required=True)
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)

    sp = sub.add_parser("closed-form", help="closed-form iterate checks")
    cf = sp.add_subparsers(dest="subcommand", required=True)
    spc = cf.add_parser("check", parents=[common],
                        help="cross-check a closed form against brute-force iteration")
    spc.add_argument("--formula", choices=["boole", "herschel", "hyperbola"], required=True)
    spc.add_argument("--lo", type=float, required=True)
    spc.add_argument("--hi", type=float, required=True)
    spc.add_argument("--n-max", type=int, default=10)
    spc.add_argument("--samples", type=int, default=1000)
    spc.add_argument("--e", type=float, default=None, help="hyperbola eccentricity")
    spc.add_argument("--a", type=float, default=None, help="hyperbola scale")
    spc.add_argument("--tol", type=float, default=None,
                     help="default 1e-9 (trig forms) or 1e-6 (power form)")

    sp = sub.add_parser("conjugacy", help="conjugacy verification")
    cj = sp.add_subparsers(dest="subcommand", required=True)
    spc = cj.add_parser("verify", parents=[common], help="check h(f(x)) = g(h(x))")
    spc.add_argument("--f", required=True)
    spc.add_argument("--g", required=True)
    spc.add_argument("--h", required=True, help="homeo spec")
    spc.add_argument("--samples", type=int, default=10000)
    spc.add_argument("--tol", type=float, default=1e-12)
    spc = cj.add_parser("semiverify", parents=[common], help="check f(h(x)) = h(g(x))")
    spc.add_argument("--f", required=True)
    spc.add_argument("--g", required=True)
    spc.add_argument("--h", required=True, help="map spec (need not be invertible)")
    spc.add_argument("--lo", type=float, required=True)
    spc.add_argument("--hi", type=float, required=True)
    spc.add_argument("--samples", type=int, default=10000)
    spc.add_argument("--tol", type=float, default=1e-12)
    spc = cj.add_parser("order", parents=[common], help="smallest p with f^p = identity")
    spc.add_argument("--map", required=True)
    spc.add_argument("--p-max", type=int, default=6)
    spc.add_argument("--samples", type=int, default=1000)
    spc.add_argument("--tol", type=float, default=1e-10)
    spc = cj.add_parser("propagate", parents=[common],
                        help="extend a seed coordinate change along orbits")
    spc.add_argument("--f", required=True)
    spc.add_argument("--g", required=True)
    spc.add_argument("--h", required=True, help="seed homeo spec")
    spc.add_argument("--lo", type=float, required=True)
    spc.add_argument("--hi", type=float, required=True)
    spc.add_argument("--depth", type=int, default=6)
    spc.add_argument("--grid", type=int, default=41)
    spc.add_argument("--tol", type=float, default=1e-3)

    sp = sub.add_parser("cobweb", parents=[common], help="cobweb diagram data or SVG")
    sp.add_argument("--map", required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("density", parents=[common], help="zero-preimage density estimate")
    sp.add_argument("--map", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--threshold", type=float, default=0.01)

    sp = sub.add_parser("rng", help="chaotic random-number pipeline")
    rg = sp.add_subparsers(dest="subcommand", required=True)
    spc = rg.add_parser("generate", parents=[common], help="generate a sample")
    spc.add_argument("--n", type=int, required=True)
    spc.add_argument("--seed", type=float, default=None)
    spc.add_argument("--stage", choices=["raw", "uniform", "square"], default="raw")
    spc = rg.add_parser("ks", parents=[common], help="empirical-CDF discrepancy")
    spc.add_argument("--n", type=int, required=True)
    spc.add_argument("--seed", type=float, default=None)
    spc.add_argument("--cdf", choices=["arcsine", "uniform", "square"], required=True)
    spc.add_argument("--tol", type=float, default=None,
                     help="when given, exceeding it exits with code 1")
    spc = rg.add_parser("collapse", parents=[common], help="fixed-point doubling collapse")
    spc.add_argument("--bits", type=int, required=True)
    spc.add_argument("--value", type=int, default=None)
    spc.add_argument("--exhaustive", action="store_true")
    spc.add_argument("--max-steps", type=int, default=None)

    sp = sub.add_parser("sensitivity", parents=[common], help="orbit separation report")
    sp.add_argument("--map", required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)

    return p


# Caps on the size arguments that make a subcommand build a list or a
# string proportional to them: (subcommands, the size as written on the
# command line, its value, cap). parse_args checks them before any
# computation; cobweb --steps, density --depth and closed-form --n-max
# are capped by the library itself. README lists every cap.
SIZE_CAPS = (
    (("orbit", "sensitivity", "rng generate", "rng ks"), "--n", lambda p: p["n"], 10**6),
    (("closed-form check", "conjugacy verify", "conjugacy semiverify", "conjugacy order"),
     "--samples", lambda p: p["samples"], 10**6),
    (("conjugacy order",), "--p-max", lambda p: p["p_max"], 10**3),
    (("conjugacy propagate",), "--grid * (--depth + 1)",
     lambda p: p["grid"] * (p["depth"] + 1), 10**6),
)


def parse_args(argv: list[str]) -> RunConfig:
    """Validate argv into a RunConfig; raises UsageError on bad input,
    ParameterError on a tolerance or threshold not positive and finite
    or a non-finite --delta, and RangeError on a size above its cap."""
    ns = _build_parser().parse_args(argv)
    command = ns.command
    if getattr(ns, "subcommand", None):
        command = f"{command} {ns.subcommand}"
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "subcommand", "format", "output", "timing")}
    if ns.format == "svg" and command != "cobweb":
        raise UsageError("svg output is only available for the cobweb subcommand")
    for name in ("tol", "threshold"):
        value = params.get(name)
        if value is not None and not 0.0 < value < math.inf:
            raise ParameterError(f"--{name} must be positive and finite, got {value!r}")
    if "delta" in params and not math.isfinite(params["delta"]):
        raise ParameterError(f"--delta must be finite, got {params['delta']!r}")
    for commands, size, value_of, cap in SIZE_CAPS:
        if command in commands and value_of(params) > cap:
            raise RangeError(f"{size} {value_of(params)} exceeds the cap of {cap}")
    return RunConfig(command=command, params=params, fmt=ns.format,
                     output=ns.output, timing=ns.timing)


# --- subcommand implementations ----------------------------------------------


def _default_seed() -> float:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise UsageError(f"bad {SEED_ENV_VAR} value '{env}'") from None
    return chaos_rng.DEFAULT_SEED


@dataclass(frozen=True)
class Result:
    """One subcommand's outcome for every output format. fields is the
    JSON result; the CSV table is csv_header over csv_rows, which view
    data already computed and default to one row of the fields the
    header names; figure holds the arguments of cobweb_svg."""

    code: int
    inputs: dict
    fields: object
    csv_header: tuple[str, ...]
    csv_rows: Optional[Iterable] = None
    figure: Optional[tuple] = None


def _run_iterate(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    value = maps.iterate(m, p["x0"], p["n"])
    return Result(EXIT_OK, {**p, "map": m.describe()}, value, ("x",), [(value,)])


def _run_orbit(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    o = maps.orbit(m, p["x0"], p["n"])
    return Result(EXIT_OK, {**p, "map": m.describe()}, {"seed": o.seed, "values": o.values},
                  ("k", "x"), enumerate(o.values))


def _run_fixed_points(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    roots = maps.fixed_points(m, p["lo"], p["hi"], p["tol"])
    return Result(EXIT_OK, {**p, "map": m.describe()}, {"count": len(roots), "roots": roots},
                  ("x",), zip(roots))


_FORMULA_DEFAULT_TOL = {"boole": 1e-9, "herschel": 1e-6, "hyperbola": 1e-9}
_QUADRATIC_FORMULAS = {"boole": closed_form.boole_iterate, "herschel": closed_form.herschel_iterate}


def _run_closed_form_check(p: dict) -> Result:
    formula_name = p["formula"]
    tol = p["tol"] if p["tol"] is not None else _FORMULA_DEFAULT_TOL[formula_name]
    if formula_name == "hyperbola":
        if p["e"] is None or p["a"] is None:
            raise UsageError("--formula hyperbola needs --e and --a")
        e, a = p["e"], p["a"]
        m = maps.Hyperbola(e=e, a=a)
        formula = lambda x, n: closed_form.hyperbola_iterate(e, a, x, n)
    else:
        m, formula = maps.Quadratic(), _QUADRATIC_FORMULAS[formula_name]
    report = closed_form.crosscheck_closed_form(m, formula, p["lo"], p["hi"],
                                                p["n_max"], p["samples"])
    code = EXIT_OK if report.max_deviation < tol else EXIT_TOLERANCE
    inputs = {"formula": formula_name, "map": m.describe(), "lo": p["lo"], "hi": p["hi"],
              "n_max": p["n_max"], "samples": p["samples"], "tol": tol}
    result = {"max_deviation": report.max_deviation, "argmax_x": report.argmax_x,
              "argmax_n": report.argmax_n, "within_tolerance": code == EXIT_OK}
    return Result(code, inputs, result, ("max_deviation", "argmax_x", "argmax_n"))


def _residual_result(report, p: dict, f, g, h) -> Result:
    code = EXIT_OK if report.max_residual < p["tol"] else EXIT_TOLERANCE
    inputs = {**p, "f": f.describe(), "g": g.describe(), "h": h.describe()}
    result = {"max_residual": report.max_residual, "argmax": report.argmax,
              "within_tolerance": code == EXIT_OK}
    return Result(code, inputs, result, ("max_residual", "argmax"))


def _run_conjugacy_verify(p: dict) -> Result:
    f = parse_map_spec(p["f"])
    g = parse_map_spec(p["g"])
    h = parse_homeo_spec(p["h"])
    report = conjugacy.verify_conjugacy(f, g, h, p["samples"])
    return _residual_result(report, p, f, g, h)


def _run_conjugacy_semiverify(p: dict) -> Result:
    f = parse_map_spec(p["f"])
    g = parse_map_spec(p["g"])
    h = parse_map_spec(p["h"])
    report = conjugacy.verify_semiconjugacy(f, g, h, p["lo"], p["hi"], p["samples"])
    return _residual_result(report, p, f, g, h)


def _run_conjugacy_order(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    order = conjugacy.periodicity_order(m, p["p_max"], p["samples"], p["tol"])
    return Result(EXIT_OK, {**p, "map": m.describe()}, {"order": order}, ("order",))


def _run_conjugacy_propagate(p: dict) -> Result:
    f = parse_map_spec(p["f"])
    g = parse_map_spec(p["g"])
    h = parse_homeo_spec(p["h"])
    outcome = conjugacy.propagate_partial_conjugacy(
        f, g, p["lo"], p["hi"], h, p["depth"], p["grid"], p["tol"])
    inputs = {**p, "f": f.describe(), "g": g.describe(), "h": h.describe()}
    if isinstance(outcome, conjugacy.Conflict):
        result = {"status": "conflict", "left": outcome.left, "right": outcome.right,
                  "image_gap": outcome.image_gap}
        return Result(EXIT_TOLERANCE, inputs, result, tuple(result))
    result = {"status": "consistent", "entries": len(outcome), "table": outcome}
    return Result(EXIT_OK, inputs, result, ("x", "y"), outcome)


def _run_cobweb(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    path = analysis.cobweb_path(m, p["x0"], p["steps"])
    result = {"points": path.points, "converged": path.converged, "limit": path.limit}
    return Result(EXIT_OK, {**p, "map": m.describe()}, result, ("x", "y"), path.points,
                  figure=(m, path))


def _run_density(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    pset = analysis.zero_preimage_set(m, p["depth"])
    report = analysis.density_report(pset, p["threshold"])
    result = {"depth": pset.depth, "count": report.count,
              "largest_gap": report.largest_gap, "dense_estimate": report.dense_estimate}
    return Result(EXIT_OK, {**p, "map": m.describe()}, result,
                  ("depth", "count", "largest_gap"), pset.levels)


def _rng_sample(n: int, seed: float, stage: str) -> Sequence[float]:
    o = chaos_rng.logistic_sequence(seed, n)
    if stage == "raw":
        return o.values
    uni = chaos_rng.uniformize(o)
    if stage == "uniform":
        return uni
    return chaos_rng.transform_to(uni, chaos_rng.square_distribution())


def _run_rng_generate(p: dict) -> Result:
    seed = p["seed"] if p["seed"] is not None else _default_seed()
    values = _rng_sample(p["n"], seed, p["stage"])
    return Result(EXIT_OK, {**p, "seed": seed}, {"values": values}, ("k", "x"),
                  enumerate(values))


# --cdf: the pipeline stage sampled and the CDF it should follow
_KS_TARGETS = {
    "arcsine": ("raw", chaos_rng.arcsine_cdf),
    "uniform": ("uniform", lambda x: x),
    "square": ("square", lambda x: x * x),
}


def _run_rng_ks(p: dict) -> Result:
    seed = p["seed"] if p["seed"] is not None else _default_seed()
    stage, cdf = _KS_TARGETS[p["cdf"]]
    statistic = chaos_rng.ks_distance(_rng_sample(p["n"], seed, stage), cdf)
    exceeded = p["tol"] is not None and statistic >= p["tol"]
    return Result(EXIT_TOLERANCE if exceeded else EXIT_OK, {**p, "seed": seed},
                  {"statistic": statistic}, ("statistic",))


def _run_rng_collapse(p: dict) -> Result:
    bits = p["bits"]
    if p["exhaustive"]:
        if p["value"] is not None:
            raise UsageError("--value and --exhaustive are mutually exclusive")
        chaos_rng.FixedPointWord(bits, 0)  # the word width rule, checked before enumerating
        if bits > 24:
            raise UsageError("exhaustive enumeration is capped at 24 bits")
        max_steps, tested = 0, 0
        for value in range(2**bits):
            steps = chaos_rng.doubling_collapse(chaos_rng.FixedPointWord(bits, value), bits)
            assert steps is not None
            max_steps = max(max_steps, steps)
            tested += 1
        result = {"max_steps": max_steps, "words_tested": tested}
        return Result(EXIT_OK, {"bits": bits, "exhaustive": True}, result, tuple(result))
    if p["value"] is None:
        raise UsageError("rng collapse needs --value or --exhaustive")
    word = chaos_rng.FixedPointWord(bits, p["value"])
    max_steps = p["max_steps"] if p["max_steps"] is not None else bits
    steps = chaos_rng.doubling_collapse(word, max_steps)
    inputs = {"bits": bits, "value": p["value"], "max_steps": max_steps}
    return Result(EXIT_OK, inputs, {"steps": steps}, ("steps",))


def _run_sensitivity(p: dict) -> Result:
    m = parse_map_spec(p["map"])
    seps = maps.sensitivity_report(m, p["x0"], p["delta"], p["n"])
    return Result(EXIT_OK, {**p, "map": m.describe()}, {"separations": seps},
                  ("k", "separation"), enumerate(seps))


_HANDLERS = {
    "iterate": _run_iterate,
    "orbit": _run_orbit,
    "fixed-points": _run_fixed_points,
    "closed-form check": _run_closed_form_check,
    "conjugacy verify": _run_conjugacy_verify,
    "conjugacy semiverify": _run_conjugacy_semiverify,
    "conjugacy order": _run_conjugacy_order,
    "conjugacy propagate": _run_conjugacy_propagate,
    "cobweb": _run_cobweb,
    "density": _run_density,
    "rng generate": _run_rng_generate,
    "rng ks": _run_rng_ks,
    "rng collapse": _run_rng_collapse,
    "sensitivity": _run_sensitivity,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute a parsed configuration; returns (exit code, output text)."""
    started = time.perf_counter()
    result = _HANDLERS[config.command](config.params)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if config.fmt == "svg":
        return result.code, cobweb_svg(*result.figure)
    if config.fmt == "csv":
        rows = result.csv_rows
        if rows is None:
            rows = [[result.fields[name] for name in result.csv_header]]
        return result.code, to_csv(result.csv_header, rows)
    document = {
        "subcommand": config.command,
        "inputs": result.inputs,
        "result": result.fields,
        # measured timing is opt-in so that default output is byte-reproducible
        "elapsed_ms": elapsed_ms if config.timing else None,
    }
    return result.code, to_json(document) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
        code, text = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntervalDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"error: value out of binary64 range ({exc})", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:  # specs and the descriptors they build are walked recursively
        print("usage error: spec nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
