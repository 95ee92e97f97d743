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
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import IntervalDynError, ParameterError, UsageError, check_cap
from .frozen import Frozen

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


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


# values or rows per formatted block: a writer holds one string per value
# for one block at a time, never for a whole sample
BLOCK = 4096


def _json_scalar(value) -> str:
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
    raise TypeError(f"cannot serialize {type(value)!r}")


def to_json(value, indent: int = 0) -> Iterator[str]:
    """value as JSON text, yielded in pieces: "".join(to_json(value)) is the
    text. A dict yields its values' pieces; a list, tuple, array('d') or
    iterator is read BLOCK elements at a time, each block formatted when it
    is reached. A callable is called when it is reached."""
    if callable(value):
        value = value()
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        sep = "{\n"
        for k, v in value.items():
            yield f'{sep}{inner}"{k}": '
            yield from to_json(v, indent + 1)
            sep = ",\n"
        yield f"\n{pad}}}" if value else "{}"
        return
    # an array('d') is told by its typecode, so that this module need not import array
    if isinstance(value, (list, tuple)) or getattr(value, "typecode", None) == "d":
        blocks = ((value,) if 0 < len(value) <= BLOCK else  # a short one is not sliced
                  (value[start:start + BLOCK] for start in range(0, len(value), BLOCK)))
    elif hasattr(value, "__next__"):  # an iterator
        blocks = iter(lambda: tuple(islice(value, BLOCK)), ())
    else:
        yield _json_scalar(value)
        return
    sep, head = f",\n{inner}", f"[\n{inner}"
    for block in blocks:
        yield head
        head = sep
        if set(map(type, block)) == {float} and math.isfinite(sum(block)):
            # every value a finite float: one %-format, the digits of
            # format(v, ".17g"), with no string per value
            yield sep.join(["%.17g"] * len(block)) % tuple(block)
        else:
            yield sep.join(["".join(to_json(v, indent + 1)) for v in block])
    yield f"\n{pad}]" if head is sep else "[]"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    s = fmt_float(v) if isinstance(v, float) else str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV table, yielded in pieces of BLOCK rows, every line ending in
    a newline; each block is formatted when it is reached."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := [",".join([_csv_cell(c) for c in row]) for row in islice(rows, BLOCK)]:
        block.append("")
        yield "\n".join(block)


# --- configuration -----------------------------------------------------------


class RunConfig(Frozen):
    """A fully parsed invocation: one subcommand plus its parameters."""

    command: str
    params: dict
    fmt: str = "json"
    output: Optional[str] = None
    timing: bool = False


class Arg:
    """One argument of a subcommand, in the order that --help, argparse's
    messages and the JSON inputs list them: the keywords argparse takes,
    the reader run() applies to a map or homeo spec, and the check, or
    tuple of checks, that parse_args makes of the value."""

    def __init__(self, flag: str, spec: Optional[Callable] = None, check=(), **options):
        self.flag, self.spec, self.options = flag, spec, options
        self.checks = check if isinstance(check, tuple) else (check,)
        self.dest = flag[2:].replace("-", "_")


def _positive(arg: Arg, params: dict) -> None:
    value = params[arg.dest]
    if value is not None and not 0.0 < value < math.inf:
        raise ParameterError(f"{arg.flag} must be positive and finite, got {value!r}")


def _finite(arg: Arg, params: dict) -> None:
    if not math.isfinite(params[arg.dest]):
        raise ParameterError(f"{arg.flag} must be finite, got {params[arg.dest]!r}")


class _Cap(Frozen):
    """A cap on a size that makes a subcommand build a list or a string,
    or run a loop, proportional to it. The size is the argument's own
    value, unless size names a product of arguments and value_of
    computes it."""

    limit: int
    size: Optional[str] = None
    value_of: Optional[Callable[[dict], int]] = None

    def __call__(self, arg: Arg, params: dict) -> None:
        value = self.value_of(params) if self.value_of else params[arg.dest]
        check_cap(value, self.size or arg.flag, self.limit)


# The caps that arguments declare; cobweb --steps, density --depth and
# closed-form --n-max are capped by the library itself. README lists
# every cap.
_SIZE_CAP = _Cap(10**6)
_ITERATE_CAP = _Cap(10**8)  # iterate builds no list; 10^8 logistic steps take about 20 s
_P_MAX_CAP = _Cap(10**3)
# a negative factor counts as 0, so that the library names the bad size
_CELLS_CAP = _Cap(10**6, "--grid * (--depth + 1)",
                  lambda p: max(p["grid"], 0) * max(p["depth"] + 1, 0))
# periodicity_order walks p steps from each grid point for each p up to
# --p-max; the same budget of map steps as _ITERATE_CAP
_ORDER_STEPS_CAP = _Cap(10**8, "--samples * --p-max * (--p-max + 1) / 2",
                        lambda p: max(p["samples"], 0) * math.comb(max(p["p_max"], 0) + 1, 2))

# parse_args makes the checks in this order, whatever the order of the
# arguments, so that which error wins stays fixed; a check must be listed
_CHECKS = (_positive, _finite, _SIZE_CAP, _ITERATE_CAP, _P_MAX_CAP, _CELLS_CAP, _ORDER_STEPS_CAP)

# argparse alone takes "--x0 -1e-3" for an unknown option -1e-3
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # one-line diagnostics, no hard exit
        raise UsageError(message)


# the help line of each group of two-word subcommands
_GROUPS = {"closed-form": "closed-form iterate checks", "conjugacy": "conjugacy verification",
           "rng": "chaotic random-number pipeline"}


def _build_parser(only: Optional[str] = None) -> _Parser:
    """The parser of every subcommand, or of only the one named (within
    its group). An argv that names that subcommand parses the same with
    either, since it reaches no other subcommand's parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    common.add_argument("--timing", action="store_true", help="include measured elapsed_ms")

    p = _Parser(prog="intervaldyn", description="one-dimensional interval-map dynamics toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (_, text, args) in COMMANDS.items():
        if only is not None and name != only:
            continue
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True)
        sp = groups.get(group, sub).add_parser(leaf, parents=[common], help=text)
        for arg in args:
            sp.add_argument(arg.flag, **arg.options)
    return p


def _named_command(argv: list[str]) -> Optional[str]:
    """The subcommand that argv's first words name exactly, unless argv
    asks for help; None otherwise, and then parse_args builds every
    parser, so that help screens and usage errors list all subcommands."""
    if "-h" in argv or "--help" in argv:
        return None
    for words in (argv[:1], argv[:2]):
        name = " ".join(words)
        if name in COMMANDS and name.split(" ") == words:
            return name
    return None


def parse_args(argv: list[str]) -> RunConfig:
    """Validate argv into a RunConfig; raises UsageError on bad input,
    ParameterError on a tolerance or threshold not positive and finite
    or a non-finite --delta, and RangeError on a size above its cap."""
    ns = _build_parser(_named_command(argv)).parse_args(argv)
    command = ns.command
    if getattr(ns, "subcommand", None):
        command = f"{command} {ns.subcommand}"
    if ns.format == "svg" and command != "cobweb":
        raise UsageError("svg output is only available for the cobweb subcommand")
    _, _, args = COMMANDS[command]
    params = {arg.dest: getattr(ns, arg.dest) for arg in args}
    checks = [(check, arg) for arg in args for check in arg.checks]
    for check, arg in sorted(checks, key=lambda pair: _CHECKS.index(pair[0])):
        check(arg, params)
    return RunConfig(command=command, params=params, fmt=ns.format,
                     output=ns.output, timing=ns.timing)


# --- subcommand implementations ----------------------------------------------


class Result(Frozen):
    """One subcommand's outcome for every output format. fields is the
    JSON result; the CSV table is csv_header over csv_rows, which view
    data already computed and default to one row of the fields the
    header names; figure() returns the SVG document's pieces. inputs,
    when given, replaces the parameters that the JSON inputs echo."""

    code: int
    fields: object
    csv_header: tuple[str, ...]
    csv_rows: Optional[Iterable] = None
    inputs: Optional[dict] = None
    figure: Optional[Callable[[], Iterable[str]]] = None


# Each handler imports the library module it runs when it runs, so that a
# process loads only the modules of its one subcommand.


def _run_iterate(p: dict) -> Result:
    from . import maps
    value = maps.iterate(p["map"], p["x0"], p["n"])
    return Result(EXIT_OK, value, ("x",), [(value,)])


def _run_orbit(p: dict) -> Result:
    from . import maps
    o = maps.orbit(p["map"], p["x0"], p["n"])
    return Result(EXIT_OK, {"seed": o.seed, "values": o.values}, ("k", "x"), enumerate(o.values))


def _run_fixed_points(p: dict) -> Result:
    from . import maps
    roots = maps.fixed_points(p["map"], p["lo"], p["hi"], p["tol"])
    return Result(EXIT_OK, {"count": len(roots), "roots": roots}, ("x",), zip(roots))


_FORMULA_DEFAULT_TOL = {"boole": 1e-9, "herschel": 1e-6, "hyperbola": 1e-9}


def _run_closed_form_check(p: dict) -> Result:
    from . import closed_form, maps
    formula_name = p["formula"]
    tol = p["tol"] if p["tol"] is not None else _FORMULA_DEFAULT_TOL[formula_name]
    if formula_name == "hyperbola":
        if p["e"] is None or p["a"] is None:
            raise UsageError("--formula hyperbola needs --e and --a")
        m = maps.Hyperbola(e=p["e"], a=p["a"])
        formula = lambda x, n: closed_form.hyperbola_iterate(m.e, m.a, x, n)
    elif p["e"] is not None or p["a"] is not None:
        raise UsageError("--e and --a apply only to --formula hyperbola")
    else:
        formulas = {"boole": closed_form.boole_iterate, "herschel": closed_form.herschel_iterate}
        m, formula = maps.Quadratic(), formulas[formula_name]
    report = closed_form.crosscheck_closed_form(m, formula, p["lo"], p["hi"],
                                                p["n_max"], p["samples"])
    code = EXIT_OK if report.max_deviation < tol else EXIT_TOLERANCE
    inputs = {"formula": formula_name, "map": m.describe(), "lo": p["lo"], "hi": p["hi"],
              "n_max": p["n_max"], "samples": p["samples"], "tol": tol}
    result = {"max_deviation": report.max_deviation, "argmax_x": report.argmax_x,
              "argmax_n": report.argmax_n, "within_tolerance": code == EXIT_OK}
    return Result(code, result, ("max_deviation", "argmax_x", "argmax_n"), inputs=inputs)


def _residual_result(report, p: dict) -> Result:
    code = EXIT_OK if report.max_residual < p["tol"] else EXIT_TOLERANCE
    result = {"max_residual": report.max_residual, "argmax": report.argmax,
              "within_tolerance": code == EXIT_OK}
    return Result(code, result, ("max_residual", "argmax"))


def _run_conjugacy_verify(p: dict) -> Result:
    from . import conjugacy
    return _residual_result(conjugacy.verify_conjugacy(p["f"], p["g"], p["h"], p["samples"]), p)


def _run_conjugacy_semiverify(p: dict) -> Result:
    from . import conjugacy
    return _residual_result(conjugacy.verify_semiconjugacy(
        p["f"], p["g"], p["h"], p["lo"], p["hi"], p["samples"]), p)


def _run_conjugacy_order(p: dict) -> Result:
    from . import conjugacy
    order = conjugacy.periodicity_order(p["map"], p["p_max"], p["samples"], p["tol"])
    return Result(EXIT_OK, {"order": order}, ("order",))


def _run_conjugacy_propagate(p: dict) -> Result:
    from . import conjugacy
    outcome = conjugacy.propagate_partial_conjugacy(
        p["f"], p["g"], p["lo"], p["hi"], p["h"], p["depth"], p["grid"], p["tol"])
    if isinstance(outcome, conjugacy.Conflict):
        result = {"status": "conflict", "left": outcome.left, "right": outcome.right,
                  "image_gap": outcome.image_gap}
        return Result(EXIT_TOLERANCE, result, tuple(result))
    result = {"status": "consistent", "entries": len(outcome), "table": outcome}
    return Result(EXIT_OK, result, ("x", "y"), outcome)


def _run_cobweb(p: dict) -> Result:
    from . import analysis
    path = analysis.cobweb_path(p["map"], p["x0"], p["steps"])

    def figure() -> Iterable[str]:  # render is imported for --format svg only
        from . import render
        return render.cobweb_svg(p["map"], path.values)
    result = {"points": path.points, "converged": path.converged, "limit": path.limit}
    return Result(EXIT_OK, result, ("x", "y"), path.points, figure=figure)


def _run_density(p: dict) -> Result:
    from . import analysis
    pset = analysis.zero_preimage_set(p["map"], p["depth"])
    report = analysis.density_report(pset, p["threshold"])
    result = {"depth": pset.depth, "count": report.count,
              "largest_gap": report.largest_gap, "dense_estimate": report.dense_estimate}
    return Result(EXIT_OK, result, ("depth", "count", "largest_gap"), pset.levels)


def _run_rng_generate(p: dict) -> Result:
    from . import chaos_rng
    seed = p["seed"] if p["seed"] is not None else chaos_rng.DEFAULT_SEED
    # Drawn by the writer after run() returns, with no copy held: stage_values
    # checks seed and count here, and from a seed in (0, 1) no stage leaves [0, 1].
    values = chaos_rng.stage_values(seed, p["n"], p["stage"])
    return Result(EXIT_OK, {"values": values}, ("k", "x"), enumerate(values),
                  inputs={**p, "seed": seed})


def _run_rng_ks(p: dict) -> Result:
    from . import chaos_rng
    seed = p["seed"] if p["seed"] is not None else chaos_rng.DEFAULT_SEED
    # --cdf names the law, and the raw orbit is the stage that follows the arcsine law
    stage = "raw" if p["cdf"] == "arcsine" else p["cdf"]
    # the stream itself: the KS sort holds the only copy of the sample
    statistic = chaos_rng.ks_distance(chaos_rng.stage_values(seed, p["n"], stage),
                                      chaos_rng.STAGES[stage])
    exceeded = p["tol"] is not None and statistic >= p["tol"]
    return Result(EXIT_TOLERANCE if exceeded else EXIT_OK, {"statistic": statistic},
                  ("statistic",), inputs={**p, "seed": seed})


def _run_rng_collapse(p: dict) -> Result:
    from . import chaos_rng
    bits = p["bits"]
    if p["exhaustive"]:
        if p["value"] is not None:
            raise UsageError("--value and --exhaustive are mutually exclusive")
        if p["max_steps"] is not None:
            raise UsageError("--max-steps and --exhaustive are mutually exclusive")
        chaos_rng.FixedPointWord(bits, 0)  # the word width rule, checked before enumerating
        if bits > 24:
            raise UsageError("exhaustive enumeration is capped at 24 bits")
        # every word collapses within bits steps, so no step count is None
        max_steps = max(chaos_rng.doubling_collapse(chaos_rng.FixedPointWord(bits, value), bits)
                        for value in range(2**bits))
        result = {"max_steps": max_steps, "words_tested": 2**bits}
        return Result(EXIT_OK, result, tuple(result), inputs={"bits": bits, "exhaustive": True})
    if p["value"] is None:
        raise UsageError("rng collapse needs --value or --exhaustive")
    word = chaos_rng.FixedPointWord(bits, p["value"])
    max_steps = p["max_steps"] if p["max_steps"] is not None else bits
    steps = chaos_rng.doubling_collapse(word, max_steps)
    inputs = {"bits": bits, "value": p["value"], "max_steps": max_steps}
    return Result(EXIT_OK, {"steps": steps}, ("steps",), inputs=inputs)


def _run_sensitivity(p: dict) -> Result:
    from . import maps
    seps = maps.sensitivity_report(p["map"], p["x0"], p["delta"], p["n"])
    return Result(EXIT_OK, {"separations": seps}, ("k", "separation"), enumerate(seps))


# --- the subcommand table ----------------------------------------------------


def parse_map_spec(text: str):
    """maps.parse_map_spec, imported when a map spec is read."""
    from .maps import parse_map_spec
    return parse_map_spec(text)


def parse_homeo_spec(text: str):
    """homeos.parse_homeo_spec, imported when a homeo spec is read."""
    from .homeos import parse_homeo_spec
    return parse_homeo_spec(text)


# arguments that several subcommands declare alike
_MAP = Arg("--map", spec=parse_map_spec, required=True)
_F = Arg("--f", spec=parse_map_spec, required=True)
_G = Arg("--g", spec=parse_map_spec, required=True)
_X0 = Arg("--x0", type=float, required=True)
_LO = Arg("--lo", type=float, required=True)
_HI = Arg("--hi", type=float, required=True)
_N = Arg("--n", check=_SIZE_CAP, type=int, required=True)
_SEED = Arg("--seed", type=float, default=None)
_TOL = Arg("--tol", check=_positive, type=float, default=1e-12)

# name -> (handler, help line, arguments), in the order --help lists them;
# a two-word name is a subcommand of the group its first word names
COMMANDS = {
    "iterate": (_run_iterate, "n-fold map application", (
        _MAP, _X0, Arg("--n", check=_ITERATE_CAP, type=int, required=True))),
    "orbit": (_run_orbit, "iterate sequence", (_MAP, _X0, _N)),
    "fixed-points": (_run_fixed_points, "solutions of f(x) = x", (_MAP, _LO, _HI, _TOL)),
    "closed-form check": (
        _run_closed_form_check, "cross-check a closed form against brute-force iteration", (
            Arg("--formula", choices=["boole", "herschel", "hyperbola"], required=True),
            _LO, _HI,
            Arg("--n-max", type=int, default=10),
            Arg("--samples", check=_SIZE_CAP, type=int, default=1000),
            Arg("--e", type=float, default=None, help="hyperbola eccentricity"),
            Arg("--a", type=float, default=None, help="hyperbola scale"),
            Arg("--tol", check=_positive, type=float, default=None,
                help="default 1e-9 (trig forms) or 1e-6 (power form)"))),
    "conjugacy verify": (_run_conjugacy_verify, "check h(f(x)) = g(h(x))", (
        _F, _G,
        Arg("--h", spec=parse_homeo_spec, required=True, help="homeo spec"),
        Arg("--samples", check=_SIZE_CAP, type=int, default=10000),
        _TOL)),
    "conjugacy semiverify": (_run_conjugacy_semiverify, "check f(h(x)) = h(g(x))", (
        _F, _G,
        Arg("--h", spec=parse_map_spec, required=True, help="map spec (need not be invertible)"),
        _LO, _HI,
        Arg("--samples", check=_SIZE_CAP, type=int, default=10000),
        _TOL)),
    "conjugacy order": (_run_conjugacy_order, "smallest p with f^p = identity", (
        _MAP,
        Arg("--p-max", check=(_P_MAX_CAP, _ORDER_STEPS_CAP), type=int, default=6),
        Arg("--samples", check=_SIZE_CAP, type=int, default=1000),
        Arg("--tol", check=_positive, type=float, default=1e-10))),
    "conjugacy propagate": (
        _run_conjugacy_propagate, "extend a seed coordinate change along orbits", (
            _F, _G,
            Arg("--h", spec=parse_homeo_spec, required=True, help="seed homeo spec"),
            _LO, _HI,
            Arg("--depth", type=int, default=6),
            Arg("--grid", check=_CELLS_CAP, type=int, default=41),
            Arg("--tol", check=_positive, type=float, default=1e-3))),
    "cobweb": (_run_cobweb, "cobweb diagram data or SVG", (
        _MAP, _X0, Arg("--steps", type=int, required=True))),
    "density": (_run_density, "zero-preimage density estimate", (
        _MAP,
        Arg("--depth", type=int, required=True),
        Arg("--threshold", check=_positive, type=float, default=0.01))),
    "rng generate": (_run_rng_generate, "generate a sample", (
        _N, _SEED,
        Arg("--stage", choices=["raw", "uniform", "square"], default="raw"))),
    "rng ks": (_run_rng_ks, "empirical-CDF discrepancy", (
        _N, _SEED,
        Arg("--cdf", choices=["arcsine", "uniform", "square"], required=True),
        Arg("--tol", check=_positive, type=float, default=None,
            help="when given, exceeding it exits with code 1"))),
    "rng collapse": (_run_rng_collapse, "fixed-point doubling collapse", (
        Arg("--bits", type=int, required=True),
        Arg("--value", type=int, default=None),
        Arg("--exhaustive", action="store_true"),
        Arg("--max-steps", type=int, default=None))),
    "sensitivity": (_run_sensitivity, "orbit separation report", (
        _MAP, _X0,
        Arg("--delta", check=_finite, type=float, required=True),
        _N)),
}


def run(config: RunConfig) -> tuple[int, Iterable[str]]:
    """Execute a parsed configuration; returns the exit code and the output
    text as an iterable of pieces. Every check has run when it returns, and
    the text is formatted as it is read from values that can fail no more:
    rng generate's sample, drawn as it is written, and cobweb's held orbit.
    Spec arguments are read here, and the JSON inputs echo describe()."""
    started = time.perf_counter()
    handler, _, args = COMMANDS[config.command]
    params, inputs = dict(config.params), dict(config.params)
    for arg in args:
        if arg.spec:
            params[arg.dest] = arg.spec(params[arg.dest])
            inputs[arg.dest] = params[arg.dest].describe()
    result = handler(params)
    if config.fmt == "svg":  # parse_args allows it only where a handler draws a figure
        return result.code, result.figure()
    if config.fmt == "csv":
        rows = result.csv_rows
        if rows is None:
            rows = [[result.fields[name] for name in result.csv_header]]
        return result.code, to_csv(result.csv_header, rows)
    document = {
        "subcommand": config.command,
        "inputs": inputs if result.inputs is None else result.inputs,
        "result": result.fields,
        # opt-in so that default output is byte-reproducible; taken when written
        "elapsed_ms": (lambda: (time.perf_counter() - started) * 1000.0)
        if config.timing else None,
    }
    return result.code, chain(to_json(document), ["\n"])


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
        code, pieces = run(config)
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
    try:
        if config.output:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:  # a full disk, or a reader that closed the pipe
        print(f"error: cannot write {config.output or 'stdout'}: {exc}", file=sys.stderr)
        if not config.output:  # so that flushing what is left buffered succeeds at shutdown
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
