import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from intervaldyn import (Hyperbola, ParameterError, chaos_rng, cli,
                         fractional_iterate_hyperbola, hyperbola_iterate, homeos, maps)
from intervaldyn.cli import (COMMANDS, _build_parser, _Cap, _named_command, fmt_float, main,
                             parse_args, parse_homeo_spec, parse_map_spec)
from intervaldyn.errors import RangeError, UsageError
from intervaldyn.homeos import (Affine, AlphaArcsin, CompositionH, Homeomorphism, Mobius,
                                PiecewiseLinearHomeo, Power, Reflect, UlamArcsin)
from intervaldyn.maps import MapDescriptor

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_iterate_prints_value(capsys):
    code, out, err = run_cli(["iterate", "--map", "logistic", "--x0", "0.2", "--n", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["subcommand"] == "iterate"
    assert doc["result"] == pytest.approx(0.64, abs=1e-15)
    assert doc["elapsed_ms"] is None
    assert doc["inputs"]["map"] == "logistic"


def test_verify_within_tolerance_exit_zero(capsys):
    code, out, _ = run_cli(["conjugacy", "verify", "--f", "logistic", "--g", "tent",
                            "--h", "ulam", "--samples", "10000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["max_residual"] < 1e-12
    assert doc["result"]["within_tolerance"] is True


def test_verify_tolerance_exceeded_exit_one(capsys):
    code, out, _ = run_cli(["conjugacy", "verify", "--f", "tent", "--g", "tent",
                            "--h", "reflect", "--samples", "1000"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["within_tolerance"] is False


def test_unknown_map_usage_error(capsys):
    code, out, err = run_cli(["iterate", "--map", "nosuchmap", "--x0", "0.2", "--n", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "nosuchmap" in err
    assert len(err.strip().splitlines()) == 1


def test_domain_error_exit_three(capsys):
    code, _, err = run_cli(["iterate", "--map", "logistic", "--x0", "2.0", "--n", "1"], capsys)
    assert code == 3
    assert "error" in err


def test_parameter_error_exit_three(capsys):
    code, _, err = run_cli(["iterate", "--map", "hyperbola:e=1.0,a=1.0",
                            "--x0", "2.0", "--n", "1"], capsys)
    assert code == 3


def test_missing_subcommand_usage(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2


def test_byte_identical_reruns(capsys):
    argv = ["orbit", "--map", "tent", "--x0", "0.2", "--n", "10", "--format", "csv"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_byte_identical_across_processes():
    # fresh interpreters with different hash seeds must agree too; the
    # child finds the package through src, installed or not
    argv = [sys.executable, "-m", "intervaldyn", "conjugacy", "verify",
            "--f", "logistic", "--g", "tent", "--h", "ulam", "--samples", "200"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed,
                                   "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# Blocks numpy, then replays every golden case (the rng ks ones among
# them) through the CLI: the package runs on the standard library alone.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import intervaldyn
from intervaldyn.cli import main
golden = json.load(open(sys.argv[1], encoding="utf-8"))
assert any(case["argv"][:2] == ["rng", "ks"] for case in golden)
for case in golden:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(case["argv"])
        except SystemExit as exc:  # a help screen
            code = exc.code
    assert (code, out.getvalue()) == (case["code"], case["stdout"]), case["argv"]
"""


def test_runs_without_numpy():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, GOLDEN_PATH],
                          capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": path,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr


def test_orbit_csv_columns(capsys):
    code, out, _ = run_cli(["orbit", "--map", "doubling", "--x0", "0.375", "--n", "3",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,x"
    assert lines[1] == "0,0.375"
    assert lines[-1] == "3,0"


def test_float_formatting_17_digits():
    assert fmt_float(0.64) == "0.64000000000000001"
    assert fmt_float(0.75) == "0.75"
    assert fmt_float(2.0**-9) == "0.001953125"
    assert fmt_float(1e-300) == "1e-300"  # trailing zeros trimmed, exponent lowercase
    for v in (0.1 + 0.2, 1.0 / 3.0, 2.0**-52, 0.999999999999512, 1e300 * 1.7):
        assert float(fmt_float(v)) == v  # lossless round trip


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1.7976931348623157e308)
def test_fmt_float_round_trips_every_finite_float(v):
    assert repr(float(fmt_float(v))) == repr(v)


def test_cobweb_svg_contract(capsys):
    code, out, _ = run_cli(["cobweb", "--map", "cosine", "--x0", "1.0",
                            "--steps", "200", "--format", "svg"], capsys)
    assert code == 0
    assert out.startswith("<?xml")
    assert 'viewBox="0 0 1000 1000"' in out
    assert "</svg>" in out
    assert "http://www.w3.org/2000/svg" in out
    assert 'class="diagonal"' in out
    assert 'class="axis"' in out
    cobweb_line = next(l for l in out.splitlines() if 'class="cobweb"' in l)
    coords = cobweb_line.split('points="')[1].split('"')[0].split()
    assert len(coords) == 401  # 2 * steps + 1 points
    graph_line = next(l for l in out.splitlines() if 'class="graph"' in l)
    graph_coords = graph_line.split('points="')[1].split('"')[0].split()
    assert len(graph_coords) == 1000


def test_svg_rejected_for_non_plot_subcommand(capsys):
    code, _, err = run_cli(["orbit", "--map", "tent", "--x0", "0.2", "--n", "3",
                            "--format", "svg"], capsys)
    assert code == 2
    assert "svg" in err


def test_density_json_and_csv(capsys):
    code, out, _ = run_cli(["density", "--map", "tent", "--depth", "10",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["largest_gap"] == 0.001953125
    assert doc["result"]["count"] == 513
    assert doc["result"]["dense_estimate"] is True

    code, out, _ = run_cli(["density", "--map", "tent", "--depth", "4",
                            "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "depth,count,largest_gap"
    assert lines[1] == "1,2,1"
    assert lines[4] == "4,9,0.125"


def test_rng_collapse_exhaustive_small(capsys):
    code, out, _ = run_cli(["rng", "collapse", "--bits", "8", "--exhaustive"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"max_steps": 8, "words_tested": 256}


def test_rng_collapse_single_word(capsys):
    code, out, _ = run_cli(["rng", "collapse", "--bits", "3", "--value", "5"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["steps"] == 3


def test_rng_collapse_usage_errors(capsys):
    code, _, err = run_cli(["rng", "collapse", "--bits", "8"], capsys)
    assert code == 2
    code, _, err = run_cli(["rng", "collapse", "--bits", "8", "--value", "1",
                            "--exhaustive"], capsys)
    assert code == 2


def test_rng_collapse_exhaustive_takes_no_max_steps(capsys):
    argv = ["rng", "collapse", "--bits", "8", "--exhaustive", "--max-steps", "3"]
    assert run_cli(argv, capsys) == (
        2, "", "usage error: --max-steps and --exhaustive are mutually exclusive\n")


@pytest.mark.parametrize("argv", [["--bits", "-1", "--exhaustive"],
                                  ["--bits", "64", "--exhaustive"],
                                  ["--bits", "-3", "--value", "0"]])
def test_rng_collapse_word_width_exits_three(argv, capsys):
    code, out, err = run_cli(["rng", "collapse"] + argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "word width must be an integer in 1..63" in err


def test_rng_generate_stages(capsys):
    code, out, _ = run_cli(["rng", "generate", "--n", "5", "--seed", "0.75",
                            "--stage", "uniform"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["values"] == pytest.approx([2.0 / 3.0] * 6, abs=1e-15)
    assert doc["inputs"]["seed"] == 0.75


def test_rng_seed_env_override(capsys, monkeypatch):
    # --seed is the only way to set the seed: CONJUGATE_SEED, set or malformed, changes nothing
    monkeypatch.delenv("CONJUGATE_SEED", raising=False)
    argv = ["rng", "generate", "--n", "3"]
    expected = run_cli(argv, capsys)
    assert expected[0] == 0 and json.loads(expected[1])["inputs"]["seed"] == 0.123456789
    for value in ("0.75", "not-a-number"):
        monkeypatch.setenv("CONJUGATE_SEED", value)
        assert run_cli(argv, capsys) == expected


def test_rng_ks_with_tolerance_gate(capsys):
    argv = ["rng", "ks", "--n", "20000", "--cdf", "uniform"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    stat = json.loads(out)["result"]["statistic"]
    assert 0.0 < stat < 0.05
    code, _, _ = run_cli(argv + ["--tol", "1e-9"], capsys)
    assert code == 1


def test_closed_form_check_cli(capsys):
    code, out, _ = run_cli(["closed-form", "check", "--formula", "boole",
                            "--lo", "-1", "--hi", "1", "--n-max", "10",
                            "--samples", "200"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["max_deviation"] < 1e-9

    code, _, err = run_cli(["closed-form", "check", "--formula", "hyperbola",
                            "--lo", "2", "--hi", "5"], capsys)
    assert code == 2  # missing --e/--a


@pytest.mark.parametrize("options", [["--e", "5", "--a", "2"], ["--e", "5"], ["--a", "2"]])
def test_closed_form_check_rejects_hyperbola_options_elsewhere(options, capsys):
    argv = ["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1",
            "--samples", "10"] + options
    assert run_cli(argv, capsys) == (
        2, "", "usage error: --e and --a apply only to --formula hyperbola\n")


def test_conjugacy_order_cli(capsys):
    code, out, _ = run_cli(["conjugacy", "order", "--map", "pwl:0,1;1,0"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["order"] == 2
    code, out, _ = run_cli(["conjugacy", "order", "--map", "logistic"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["order"] is None


def test_conjugacy_propagate_conflict_exit_one(capsys):
    code, out, _ = run_cli(["conjugacy", "propagate", "--f", "logistic", "--g", "tent",
                            "--h", "affine:p=1,q=0", "--lo", "0.1", "--hi", "0.11",
                            "--depth", "6", "--grid", "41", "--tol", "1e-3"], capsys)
    assert code == 1
    assert json.loads(out)["result"]["status"] == "conflict"


def test_conjugacy_semiverify_cli(capsys):
    code, out, _ = run_cli(["conjugacy", "semiverify", "--f", "quadratic",
                            "--g", "pwl:0,0;10,20", "--h", "cosine",
                            "--lo", "0", "--hi", "10", "--samples", "1000"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["max_residual"] < 1e-12


# both sides overflow to inf, so the residual is inf - inf: at every
# sample of the first window, at all but the first of the second
@pytest.mark.parametrize("lo,hi,x", [("1e200", "1e201", "1e+200"), ("0", "1e200", "2.5e+199")])
def test_nan_residual_fails_the_check(lo, hi, x, capsys):
    argv = ["conjugacy", "semiverify", "--f", "quadratic", "--g", "quadratic", "--h", "quadratic",
            "--lo", lo, "--hi", hi, "--samples", "4"]
    assert run_cli(argv, capsys) == (
        3, "", f"error: semiconjugacy check failed at x={x}: the residual is NaN\n")


def test_homeo_composition_spec():
    h = parse_homeo_spec("affine:p=2,q=0 o alpha")
    from intervaldyn import UlamArcsin, apply_homeo
    for i in range(11):
        x = i / 10
        assert apply_homeo(h, x) == apply_homeo(UlamArcsin(), x)


def test_map_spec_conjugated():
    m = parse_map_spec("conj:logistic|alpha")
    from intervaldyn import eval_map
    assert eval_map(m, 0.1) == pytest.approx(0.2, abs=1e-13)


def test_map_spec_errors(capsys):
    with pytest.raises(UsageError):
        parse_map_spec("tent:k=1")
    with pytest.raises(UsageError):
        parse_map_spec("hyperbola:e=2")
    with pytest.raises(UsageError):
        parse_map_spec("pwl:1;2")
    with pytest.raises(UsageError):
        parse_homeo_spec("spiral")
    # parameterless names take no arguments, keys may not repeat, and
    # parentheses, compositions and conj: must be complete
    for spec in ("hyperbola:e=2,e=3,a=1", "conj:logistic|", "conj:logistic|(ulam"):
        with pytest.raises(UsageError):
            parse_map_spec(spec)
        assert run_cli(["iterate", "--map", spec, "--x0", "0.3", "--n", "1"], capsys)[0] == 2
    for spec in ("ulam:x", "reflect:1", "alpha:1", "(ulam", "ulam o", "ulam o (reflect",
                 "(ulam o reflect))"):
        with pytest.raises(UsageError):
            parse_homeo_spec(spec)
        code = run_cli(["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", spec,
                        "--samples", "10"], capsys)[0]
        assert code == 2


def test_deeply_nested_specs_exit_two(capsys):
    for argv in (["conjugacy", "verify", "--f", "tent", "--g", "tent", "--samples", "10",
                  "--h", " o ".join(["reflect"] * 3000)],
                 ["iterate", "--x0", "0.3", "--n", "1",
                  "--map", "conj:" * 3000 + "logistic" + "|reflect" * 3000]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "usage error: spec nests too deeply\n"


def test_every_family_is_in_the_parser_tables():
    for module, base, count in ((maps, MapDescriptor, 10), (homeos, Homeomorphism, 7)):
        declared = [c for c in vars(module).values()
                    if isinstance(c, type) and issubclass(c, base) and hasattr(c, "_spec")]
        assert len(declared) == count
        assert module._FAMILIES == {c._spec[0]: c for c in declared}


_FLOATS = st.floats()  # constructors reject what their family does not allow
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ASCENDING = st.lists(_FINITE, min_size=2, max_size=5, unique=True).map(sorted)


def _built(cls, *args):
    try:
        return cls(*args)
    except ParameterError:
        return None


def _family(cls, *arg_strategies):
    return (st.tuples(*arg_strategies).map(lambda args: _built(cls, *args))
            .filter(lambda value: value is not None))


def _knots(cls, monotone):
    ys = _ASCENDING if monotone else st.lists(_FINITE, min_size=5, max_size=5)
    pairs = st.tuples(_ASCENDING, ys, st.booleans()).map(
        lambda t: list(zip(t[0], t[1][::-1] if t[2] else t[1])))
    return _family(cls, pairs)


_HOMEOS = st.recursive(
    st.one_of([_family(c) for c in (UlamArcsin, AlphaArcsin, Reflect)]
              + [_family(Affine, _FLOATS, _FLOATS), _family(Power, _FLOATS),
                 _family(Mobius, _FLOATS, _FLOATS), _knots(PiecewiseLinearHomeo, True)]),
    lambda inner: st.builds(CompositionH, inner, inner), max_leaves=4)
_MAPS = st.recursive(
    st.one_of([_family(c) for c in (maps.Logistic, maps.Tent, maps.HalfTent, maps.Quadratic,
                                    maps.Doubling, maps.Cosine, maps.SineSquared)]
              + [_family(maps.Hyperbola, _FLOATS, _FLOATS),
                 _family(maps.Verhulst, _FLOATS, _FLOATS),
                 _knots(maps.PiecewiseLinear, False)]),
    lambda inner: st.builds(maps.Conjugated, inner, _HOMEOS), max_leaves=3)

_NESTED = maps.Conjugated(
    maps.Conjugated(maps.Logistic(),
                    CompositionH(UlamArcsin(), CompositionH(Reflect(), Reflect()))),
    CompositionH(CompositionH(Power(2.0), Reflect()), AlphaArcsin()))


@given(_MAPS)
@example(_NESTED)
def test_map_specs_round_trip(m):
    text = m.describe()
    assert repr(parse_map_spec(text)) == repr(m)
    assert parse_map_spec(text).describe() == text


@given(_HOMEOS)
@example(CompositionH(UlamArcsin(), CompositionH(Reflect(), Reflect())))
@example(CompositionH(CompositionH(UlamArcsin(), Reflect()), Reflect()))
def test_homeo_specs_round_trip(h):
    text = h.describe()
    assert repr(parse_homeo_spec(text)) == repr(h)
    assert parse_homeo_spec(text).describe() == text


@pytest.mark.parametrize("argv,key", [
    (["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--samples", "100",
      "--h", "ulam o reflect o reflect"], "h"),
    (["iterate", "--x0", "0.3", "--n", "5", "--map", "conj:conj:logistic|ulam|reflect"], "map"),
])
def test_echoed_spec_reads_back(argv, key, capsys):
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv[:-1] + [json.loads(first)["inputs"][key]], capsys)
    assert code == 0
    assert second == first


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(["iterate", "--map", "tent", "--x0", "0.1", "--n", "1",
                            "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("argv, message", [
    (["rng", "generate", "--n", "10", "--seed", "1.5"],
     "error: seed must lie strictly inside (0, 1), got 1.5\n"),
    # the orbit overflows, and the renderer rejects the window
    (["cobweb", "--map", "quadratic", "--x0", "1e200", "--steps", "3", "--format", "svg"],
     "error: cannot draw the cobweb window [1e+200, inf]: it is not finite\n"),
    # both ends are finite, but their distance overflows
    (["cobweb", "--map", "conj:cosine|affine:p=5e307,q=0", "--x0", "1.5707963267948966e308",
      "--steps", "2", "--format", "svg"],
     "error: cannot draw the cobweb window [-5e+307, 1.5707963267948966e+308]: "
     "it is not finite\n"),
    # rng generate streams its sample into the writer, but counts it at the call
    (["rng", "generate", "--n", "0"], "error: step count must be a positive integer, got 0\n"),
], ids=["bad-seed", "svg-window", "svg-spread", "zero-count"])
def test_a_failing_run_writes_nothing(argv, message, tmp_path, capsys):
    # every check runs before the output is opened; only the text is
    # formatted as it is written
    target = tmp_path / "out"
    target.write_bytes(b"earlier output\n")
    code, out, err = run_cli(argv + ["--output", str(target)], capsys)
    assert (code, out, err) == (3, "", message)
    assert target.read_bytes() == b"earlier output\n"
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (3, "", message)


def test_a_closed_stdout_pipe_exits_3_with_one_line():
    # the reader takes 10 bytes of a 2 MB document and closes the pipe:
    # the failed write is a one-line error, and the flush at shutdown
    # stays quiet
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "intervaldyn", "rng", "generate",
                             "--n", "100000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": path,
                                 "PYTHONDONTWRITEBYTECODE": "1"})
    try:
        assert proc.stdout.read(10) == b'{\n  "subco'
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=60)
        proc.stderr.close()
    assert (proc.returncode, err) == (3, b"error: cannot write stdout: [Errno 32] Broken pipe\n")


# The tracemalloc peak of one run that writes to a file. An orbit-stream
# run holds its sample or orbit as doubles and its text one block at a
# time, so each ceiling is c * 8n bytes plus a constant, with c about the
# number of doubles per value the run holds; an object per value (about
# 32 bytes) or the whole text held at once exceeds it, and so do a second
# copy of the rng ks sample and a string per value of a JSON block.
# rng generate writes its sample as it is drawn and holds none of it, so
# its ceiling is one constant at two sizes (a held array('d') exceeds it
# at both). cobweb holds its orbit as one array('d') in every format, and
# json and csv read the point pairs from it a block at a time; at either
# of their two sizes, their ceilings leave less than 24 bytes a step (the
# least object and its pointer) above what they hold, so that a pair or
# any other object held per step exceeds them (the pairs held as a tuple
# took about 22 doubles a step, 8.8 MB at 50000 steps).
@pytest.mark.parametrize("argv, n, doubles, constant", [
    (["rng", "generate", "--n", "{n}", "--seed", "0.123456789"], 100000, 0, 500_000),
    (["rng", "generate", "--n", "{n}", "--seed", "0.123456789", "--stage", "square"],
     200000, 0, 500_000),
    (["rng", "ks", "--n", "{n}", "--seed", "0.123456789", "--cdf", "arcsine"],
     100000, 1.25, 450_000),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "{n}", "--format", "svg"],
     50000, 1.25, 750_000),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "{n}", "--format", "json"],
     25000, 1.25, 1_600_000),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "{n}", "--format", "json"],
     50000, 1.25, 1_600_000),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "{n}", "--format", "csv"],
     25000, 1.25, 1_200_000),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "{n}", "--format", "csv"],
     50000, 1.25, 1_200_000),
], ids=["rng-generate", "rng-generate-2n", "rng-ks", "cobweb-svg", "cobweb-json",
        "cobweb-json-2n", "cobweb-csv", "cobweb-csv-2n"])
def test_orbit_stream_memory_ceilings(argv, n, doubles, constant, tmp_path):
    target = str(tmp_path / "out")
    # a small run first, untraced, for the imports and caches
    assert main([a.format(n=10) for a in argv] + ["--output", target]) == 0
    tracemalloc.start()
    try:
        code = main([a.format(n=n) for a in argv] + ["--output", target])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < doubles * 8 * n + constant, peak


# The tracemalloc peak of a residual check or closed-form check at n
# samples, run like the orbit streams above. Each holds its grid, and a
# residual check its residual profile, as one array('d') of n doubles, so
# 3 * 8n bytes plus a constant bounds it; a float object per sample (about
# 10 doubles a sample, in a list and a tuple copy) exceeds it.
@pytest.mark.parametrize("argv", [
    ["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam", "--samples", "{n}"],
    ["conjugacy", "semiverify", "--f", "logistic", "--g", "doubling", "--h", "sinsq",
     "--lo", "0", "--hi", "1", "--samples", "{n}"],
    ["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1", "--n-max", "1",
     "--samples", "{n}"],
], ids=["verify", "semiverify", "closed-form-check"])
def test_verification_memory_ceilings(argv, tmp_path):
    target, n = str(tmp_path / "out"), 50000
    # a small run first, untraced, for the imports and caches
    assert main([a.format(n=10) for a in argv] + ["--output", target]) == 0
    tracemalloc.start()
    try:
        code = main([a.format(n=n) for a in argv] + ["--output", target])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * 8 * n + 150_000, peak


def test_timing_flag_gives_number(capsys):
    code, out, _ = run_cli(["iterate", "--map", "tent", "--x0", "0.1", "--n", "1",
                            "--timing"], capsys)
    assert json.loads(out)["elapsed_ms"] >= 0.0


def test_timing_covers_the_streamed_draw(monkeypatch, capsys):
    # a fake clock: each reading and each value drawn take 1 ms, so the
    # 51 values of --n 50 put elapsed_ms at 51 or more only if the time
    # is taken after the writer has read the stream
    ticks = [0]

    def clock():
        ticks[0] += 1
        return (ticks[0] - 1) / 1000.0

    def sample(seed, n, stage):
        for v in stage_values(seed, n, stage):
            ticks[0] += 1
            yield v

    stage_values = chaos_rng.stage_values
    monkeypatch.setattr(cli.time, "perf_counter", clock)
    monkeypatch.setattr(chaos_rng, "stage_values", sample)
    code, out, _ = run_cli(["rng", "generate", "--n", "50", "--timing"], capsys)
    assert code == 0
    assert json.loads(out)["elapsed_ms"] >= 51


# rng generate writes its stream after run() has returned, which is safe
# only because the stream cannot fail once logistic_values has checked
# the seed and the count: no seed in (0, 1) leaves [0, 1] at any stage
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from(["raw", "uniform", "square"]),
       st.integers(1, 2000))
@example(5e-324, "uniform", 2000)
@example(math.nextafter(1.0, 0.0), "square", 2000)
@example(math.nextafter(0.5, 0.0), "uniform", 10)
@example(0.5, "square", 10)  # 1, then the fixed point 0
@settings(deadline=None)
def test_rng_stream_stays_in_the_unit_interval(seed, stage, n):
    values = list(chaos_rng.stage_values(seed, n, stage))
    assert len(values) == n + 1
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sensitivity_cli_csv(capsys):
    code, out, _ = run_cli(["sensitivity", "--map", "logistic", "--x0", "0.123456789",
                            "--delta", "1e-9", "--n", "40", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,separation"
    assert len(lines) == 42
    assert float(lines[-1].split(",")[1]) > 0.1


def test_fixed_points_cli(capsys):
    code, out, _ = run_cli(["fixed-points", "--map", "logistic", "--lo", "0.01",
                            "--hi", "0.99", "--tol", "1e-12"], capsys)
    assert code == 0
    roots = json.loads(out)["result"]["roots"]
    assert roots == pytest.approx([0.75], abs=1e-11)
    # a tolerance below the float spacing at a root ends at adjacent doubles
    code, out, _ = run_cli(["fixed-points", "--map", "sinsq", "--lo", "0.1", "--hi", "1",
                            "--tol", "1e-17"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["count"] == 2


def test_parse_args_structure():
    config = parse_args(["conjugacy", "verify", "--f", "logistic", "--g", "tent",
                         "--h", "ulam"])
    assert config.command == "conjugacy verify"
    assert config.fmt == "json"
    assert config.params["samples"] == 10000


_MAP_SPECS = ["logistic", "tent", "halftent", "quadratic", "doubling", "cosine", "sinsq",
              "hyperbola:e=2,a=1", "hyperbola:e=0.5,a=1", "verhulst:m=4,n=4",
              "pwl:0,0;0.4,1;1,0", "conj:logistic|alpha"]


@pytest.mark.parametrize("spec", _MAP_SPECS)
def test_non_finite_seeds_exit_cleanly(spec, capsys):
    for x0 in ("inf", "-inf", "nan", "-nan"):
        for sub, *tail in (["iterate", "--n", "3"], ["orbit", "--n", "3"],
                           ["cobweb", "--steps", "3"],
                           ["sensitivity", "--delta", "1e-9", "--n", "3"]):
            code, _, err = run_cli([sub, "--map", spec, f"--x0={x0}"] + tail, capsys)
            assert code in (0, 3), (sub, x0)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err
            if spec == "cosine" and not x0.endswith("nan"):
                assert code == 3 and "cos" in err


@pytest.mark.parametrize("argv", [
    ["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam",
     "--lo", "0.1", "--hi", "0.11", "--tol", "nan"],
    ["conjugacy", "order", "--map", "pwl:0,1;1,0", "--tol", "nan"],
    ["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam", "--tol", "nan"],
    ["conjugacy", "semiverify", "--f", "quadratic", "--g", "pwl:0,0;10,20", "--h", "cosine",
     "--lo", "0", "--hi", "10", "--tol", "0"],
    ["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1", "--tol", "nan"],
    ["rng", "ks", "--n", "100", "--cdf", "uniform", "--tol", "nan"],
    ["rng", "ks", "--n", "100", "--cdf", "uniform", "--tol", "-1"],
    ["fixed-points", "--map", "logistic", "--lo", "0.01", "--hi", "0.99", "--tol", "inf"],
    ["density", "--map", "tent", "--depth", "3", "--threshold", "nan"],
    ["density", "--map", "tent", "--depth", "3", "--threshold", "-1", "--format", "csv"],
])
def test_tolerance_must_be_positive_and_finite(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "positive and finite" in err


def test_negative_scientific_arguments(capsys):
    code, out, _ = run_cli(["iterate", "--map", "quadratic", "--x0", "-1e-3", "--n", "1"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["x0"] == -1e-3
    assert run_cli(["iterate", "--map", "quadratic", "--x0=-1e-3", "--n", "1"], capsys)[1] == out
    code, out, _ = run_cli(["fixed-points", "--map", "quadratic", "--lo", "-1e0", "--hi", "2"],
                           capsys)
    assert code == 0
    assert json.loads(out)["result"]["roots"] == pytest.approx([-0.5, 1.0], abs=1e-11)
    code, out, _ = run_cli(["sensitivity", "--map", "logistic", "--x0", "0.3", "--delta", "-1e-9",
                            "--n", "2"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["delta"] == -1e-9
    code, out, _ = run_cli(["iterate", "--map", "quadratic", "--x0", "-inf", "--n", "1"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == float("inf")
    # -nan is a number too, and fails as nan does, not as an unknown option
    nan_error = (3, "", "error: NaN is not a point of [-inf, inf]\n")
    assert run_cli(["iterate", "--map", "quadratic", "--x0", "nan", "--n", "1"], capsys) == nan_error
    assert run_cli(["iterate", "--map", "quadratic", "--x0", "-nan", "--n", "1"], capsys) == nan_error
    assert run_cli(["iterate", "--map", "quadratic", "--x0", "-NaN", "--n", "1"], capsys) == nan_error
    # an unknown option that is not a number is still a usage error
    assert run_cli(["iterate", "--map", "tent", "--x0", "-e3", "--n", "1"], capsys)[0] == 2


# Which error wins when an argv has several faults: argparse errors,
# then the svg rule; then every --tol/--threshold check, then --delta,
# then the size caps; and only then the specs, in --f, --g, --h order.
_FAULTS = [
    (["conjugacy", "order", "--map", "pwl:0,1;1,0", "--p-max", "2000", "--tol", "nan"], 3,
     "error: --tol must be positive and finite, got nan"),
    (["orbit", "--map", "nosuchmap", "--x0", "0.3", "--n", "2000000"], 3,
     "error: --n 2000000 exceeds the cap of 1000000"),
    (["density", "--map", "tent", "--depth", "3", "--threshold", "-1", "--format", "svg"], 2,
     "usage error: svg output is only available for the cobweb subcommand"),
    (["orbit", "--map", "nosuch", "--x0", "0.3", "--n", "2000000", "--format", "svg"], 2,
     "usage error: svg output is only available for the cobweb subcommand"),
    (["conjugacy", "verify", "--f", "nosuch", "--g", "tent", "--h", "nosuch"], 2,
     "usage error: unknown map 'nosuch'"),
    (["conjugacy", "verify", "--f", "logistic", "--g", "nosuchg", "--h", "nosuchh"], 2,
     "usage error: unknown map 'nosuchg'"),
    (["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "nosuchh",
      "--samples", "0"], 2, "usage error: unknown coordinate change 'nosuchh'"),
    (["sensitivity", "--map", "nosuch", "--x0", "1", "--delta", "inf", "--n", "2000000"], 3,
     "error: --delta must be finite, got inf"),
    (["rng", "ks", "--n", "5", "--cdf", "bogus", "--tol", "-1"], 2,
     "usage error: argument --cdf: invalid choice: 'bogus' "
     "(choose from 'arcsine', 'uniform', 'square')"),
    (["conjugacy", "semiverify", "--f", "logistic", "--g", "tent", "--h", "ulam"], 2,
     "usage error: the following arguments are required: --lo, --hi"),
    (["conjugacy", "bogus"], 2,
     "usage error: argument subcommand: invalid choice: 'bogus' "
     "(choose from 'verify', 'semiverify', 'order', 'propagate')"),
    (["iterate", "--map", "tent", "--x0", "0.3", "--n", "1", "--bogus", "1"], 2,
     "usage error: unrecognized arguments: --bogus 1"),
    (["iterate", "--map", "tent", "--x0", "abc", "--n", "1"], 2,
     "usage error: argument --x0: invalid float value: 'abc'"),
    (["bogus"], 2,
     "usage error: argument command: invalid choice: 'bogus' (choose from 'iterate', "
     "'orbit', 'fixed-points', 'closed-form', 'conjugacy', 'cobweb', 'density', 'rng', "
     "'sensitivity')"),
    ([], 2, "usage error: the following arguments are required: command"),
    (["conjugacy", "order", "--map", "pwl:0,1;1,0", "--p-max", "2000", "--samples", "2000000"],
     3, "error: --samples 2000000 exceeds the cap of 1000000"),
    (["conjugacy", "propagate", "--f", "nosuch", "--g", "tent", "--h", "ulam", "--lo", "0.1",
      "--hi", "0.2", "--grid", "1000000", "--tol", "0"], 3,
     "error: --tol must be positive and finite, got 0.0"),
    (["conjugacy", "propagate", "--f", "nosuch", "--g", "tent", "--h", "ulam", "--lo", "0.1",
      "--hi", "0.2", "--grid", "1000000"], 3,
     "error: --grid * (--depth + 1) 7000000 exceeds the cap of 1000000"),
    (["closed-form", "check", "--formula", "hyperbola", "--lo", "2", "--hi", "3",
      "--samples", "2000000"], 3, "error: --samples 2000000 exceeds the cap of 1000000"),
    (["fixed-points", "--map", "nosuch", "--lo", "0", "--hi", "1", "--tol", "inf"], 3,
     "error: --tol must be positive and finite, got inf"),
    (["conjugacy", "semiverify", "--f", "logistic", "--g", "doubling", "--h", "sinsq",
      "--lo", "inf", "--hi", "1", "--samples", "1"], 3, "error: need at least 2 samples, got 1"),
    # a negative factor counts as 0 in the cap, so the library names the bad size
    (["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam", "--lo", "0.1",
      "--hi", "0.2", "--grid", "-2000", "--depth", "-2000"], 3,
     "error: depth must be a positive integer, got -2000"),
    # the n_max and the samples errors win over a bad check interval
    (["closed-form", "check", "--formula", "boole", "--lo", "1", "--hi", "-1", "--n-max", "31"],
     3, "error: iteration count 31 exceeds the cap of 30"),
    (["closed-form", "check", "--formula", "boole", "--lo", "1", "--hi", "-1", "--samples", "1"],
     3, "error: need at least 2 samples, got 1"),
    # iterate --n builds no list, but its loop is capped; the cap wins over the spec
    (["iterate", "--map", "nosuch", "--x0", "0.3", "--n", "100000000000"], 3,
     "error: --n 100000000000 exceeds the cap of 100000000"),
    # an empty or reversed seed interval has no grid to propagate
    (["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam", "--lo", "0.5",
      "--hi", "0.5", "--depth", "1", "--grid", "3"], 3,
     "error: cannot grid [0.5, 0.5]: need lo < hi and a finite hi - lo"),
    (["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam", "--lo", "0.2",
      "--hi", "0.1"], 3, "error: cannot grid [0.2, 0.1]: need lo < hi and a finite hi - lo"),
    # a knot segment whose (x1 - x0) * (y1 - y0) overflows is a bad spec, not a wrong answer
    (["iterate", "--map", "pwl:-1e308,0;1e308,1", "--x0", "0", "--n", "1"], 3,
     "error: knot segment from (-1e+308, 0.0) to (1e+308, 1.0) overflows: "
     "(x1 - x0) * (y1 - y0) is not finite"),
    (["fixed-points", "--map", "pwl:-1e308,-1e308;1e308,1e308", "--lo", "-1", "--hi", "1"], 3,
     "error: knot segment from (-1e+308, -1e+308) to (1e+308, 1e+308) overflows: "
     "(x1 - x0) * (y1 - y0) is not finite"),
    (["iterate", "--map", "pwl:0,0;1e200,1e200", "--x0", "1e199", "--n", "1"], 3,
     "error: knot segment from (0.0, 0.0) to (1e+200, 1e+200) overflows: "
     "(x1 - x0) * (y1 - y0) is not finite"),
    (["iterate", "--map", "conj:tent|pwlh:-1e308,0;1e308,1", "--x0", "0.5", "--n", "1"], 3,
     "error: knot segment from (-1e+308, 0.0) to (1e+308, 1.0) overflows: "
     "(x1 - x0) * (y1 - y0) is not finite"),
    # propagate walks both orbits with maps.trajectory, so leaving the domain fails at depth 1
    (["conjugacy", "propagate", "--f", "pwl:0,0;1,2", "--g", "tent", "--h", "ulam", "--lo", "0.6",
      "--hi", "0.7", "--depth", "1", "--grid", "3"], 3,
     "error: iterate 1 escaped the domain: 1.2 lies outside [0.0, 1.0]"),
    # order's step cap is checked after the argument caps, and wins over the spec
    (["conjugacy", "order", "--map", "pwl:0,1;1,0", "--p-max", "1001", "--samples", "1000000"],
     3, "error: --p-max 1001 exceeds the cap of 1000"),
    (["conjugacy", "order", "--map", "nosuch", "--p-max", "1000", "--samples", "200"], 3,
     "error: --samples * --p-max * (--p-max + 1) / 2 100100000 exceeds the cap of 100000000"),
]


@pytest.mark.parametrize("argv,code,line", _FAULTS)
def test_fault_precedence(argv, code, line, capsys):
    assert run_cli(argv, capsys) == (code, "", line + "\n")


# the diagnostics of the library's count rules, as the CLI prints them
_COUNT_ERRORS = [
    (["iterate", "--map", "logistic", "--x0", "0.3", "--n", "-1"],
     "iteration count must be a nonnegative integer, got -1"),
    (["orbit", "--map", "logistic", "--x0", "0.3", "--n", "0"],
     "orbit length must be a positive integer, got 0"),
    (["sensitivity", "--map", "logistic", "--x0", "0.3", "--delta", "1e-9", "--n", "0"],
     "step count must be a positive integer, got 0"),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "0"],
     "steps must be a positive integer, got 0"),
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "1000001"],
     "steps 1000001 exceeds the cap of 1000000"),
    (["density", "--map", "tent", "--depth", "0"], "depth must be a positive integer, got 0"),
    (["density", "--map", "tent", "--depth", "21"], "depth 21 exceeds the cap of 20"),
    (["conjugacy", "order", "--map", "pwl:0,1;1,0", "--p-max", "0"],
     "p_max must be a positive integer, got 0"),
    (["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam", "--lo", "0.1",
      "--hi", "0.2", "--depth", "0"], "depth must be a positive integer, got 0"),
    (["rng", "collapse", "--bits", "8", "--value", "1", "--max-steps", "-1"],
     "max_steps must be a nonnegative integer, got -1"),
    (["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1", "--n-max", "31"],
     "iteration count 31 exceeds the cap of 30"),
]


def _argv_id(argv, last=2):
    """The subcommand and the last arguments, e.g. "rng collapse --max-steps -1"."""
    words = 2 if argv[0] in ("closed-form", "conjugacy", "rng") else 1
    return " ".join(argv[:words] + argv[words:][-last:])


@pytest.mark.parametrize("argv,line", _COUNT_ERRORS, ids=[_argv_id(a) for a, _ in _COUNT_ERRORS])
def test_count_errors_keep_their_lines(argv, line, capsys):
    assert run_cli(argv, capsys) == (3, "", f"error: {line}\n")


_PROPAGATE = ["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam"]
_BOOLE_CHECK = ["closed-form", "check", "--formula", "boole"]

# each count speaks the one rule; every gridded interval speaks the one
# interval rule; an infinite end is named, not reported as NaN
_ARGUMENT_LINES = [
    (["rng", "generate", "--n", "0"], "step count must be a positive integer, got 0"),
    (["rng", "ks", "--cdf", "uniform", "--n", "0"], "step count must be a positive integer, got 0"),
    (_BOOLE_CHECK + ["--lo", "-1", "--hi", "1", "--n-max", "-1"],
     "iteration count must be a nonnegative integer, got -1"),
    (_BOOLE_CHECK + ["--lo", "0.5", "--hi", "0.5"],
     "cannot grid [0.5, 0.5]: need lo < hi and a finite hi - lo"),
    (_BOOLE_CHECK + ["--lo", "1", "--hi", "-1"],
     "cannot grid [1.0, -1.0]: need lo < hi and a finite hi - lo"),
    (_BOOLE_CHECK + ["--lo", "-inf", "--hi", "1"],
     "cannot grid [-inf, 1.0]: need lo < hi and a finite hi - lo"),
    (["fixed-points", "--map", "quadratic", "--lo", "-inf", "--hi", "1"],
     "cannot grid [-inf, 1.0]: need lo < hi and a finite hi - lo"),
    (_PROPAGATE + ["--lo", "-inf", "--hi", "0.2"],
     "cannot grid [-inf, 0.2]: need lo < hi and a finite hi - lo"),
    # a NaN seed end names the seed interval, not f's domain
    (_PROPAGATE + ["--lo", "nan", "--hi", "0.2"],
     "cannot grid [nan, 0.2]: need lo < hi and a finite hi - lo"),
    # a width that overflows is named, not reported as a NaN grid point
    (["closed-form", "check", "--formula", "herschel", "--lo", "-1e308", "--hi", "1e308"],
     "cannot grid [-1e+308, 1e+308]: need lo < hi and a finite hi - lo"),
    (["conjugacy", "semiverify", "--f", "logistic", "--g", "doubling", "--h", "sinsq",
      "--lo", "-1e308", "--hi", "1e308"],
     "cannot grid [-1e+308, 1e+308]: need lo < hi and a finite hi - lo"),
    (_PROPAGATE + ["--lo", "-1e308", "--hi", "1e308"],
     "cannot grid [-1e+308, 1e+308]: need lo < hi and a finite hi - lo"),
]


@pytest.mark.parametrize("argv,line", _ARGUMENT_LINES,
                         ids=[_argv_id(a, 4) for a, _ in _ARGUMENT_LINES])
def test_argument_errors_name_the_argument(argv, line, capsys):
    assert run_cli(argv, capsys) == (3, "", f"error: {line}\n")


@pytest.mark.parametrize("argv", [
    ["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam"],
    ["conjugacy", "semiverify", "--f", "logistic", "--g", "doubling", "--h", "sinsq",
     "--lo", "0", "--hi", "1"],
    ["conjugacy", "order", "--map", "pwl:0,1;1,0"],
    ["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1"],
], ids=["verify", "semiverify", "order", "closed-form"])
def test_one_sample_is_too_few(argv, capsys):
    assert run_cli(argv + ["--samples", "1"], capsys) == (
        3, "", "error: need at least 2 samples, got 1\n")


@pytest.mark.parametrize("delta", ["inf", "-inf", "nan", "-nan"])
def test_delta_must_be_finite(delta, capsys):
    code, out, err = run_cli(["sensitivity", "--map", "quadratic", "--x0", "0.5",
                              f"--delta={delta}", "--n", "3"], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "--delta must be finite" in err


@pytest.mark.parametrize("map_spec,x0,delta", [("quadratic", "1e200", "1"),
                                               ("hyperbola:e=2,a=1", "1e300", "0")])
def test_orbits_at_the_same_infinity_do_not_separate(map_spec, x0, delta, capsys):
    argv = ["sensitivity", "--map", map_spec, "--x0", x0, "--delta", delta, "--n", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["result"]["separations"] == [0.0, 0.0, 0.0]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert out == "k,separation\n0,0\n1,0\n2,0\n"


@pytest.mark.parametrize("seed", [["--x0=inf", "--steps", "3"], ["--x0", "3", "--steps", "12"]])
def test_cobweb_svg_needs_a_finite_window(seed, capsys):
    argv = ["cobweb", "--map", "quadratic"] + seed
    code, out, err = run_cli(argv + ["--format", "svg"], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "not finite" in err
    for fmt in ("json", "csv"):  # the data itself is still reported
        code, out, _ = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0 and "Infinity" in out


# (argv without the size, the capped size as its error names it, its
# arguments at the cap, and one above it)
_CAPPED = [
    (["iterate", "--map", "logistic", "--x0", "0.3"], "--n",
     ["--n", "100000000"], ["--n", "100000001"]),
    (["orbit", "--map", "logistic", "--x0", "0.3"], "--n", ["--n", "1000000"], ["--n", "1000001"]),
    (["sensitivity", "--map", "logistic", "--x0", "0.3", "--delta", "1e-9"], "--n",
     ["--n", "1000000"], ["--n", "1000001"]),
    (["rng", "generate"], "--n", ["--n", "1000000"], ["--n", "1000001"]),
    (["rng", "ks", "--cdf", "uniform"], "--n", ["--n", "1000000"], ["--n", "1000001"]),
    (["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1"], "--samples",
     ["--samples", "1000000"], ["--samples", "1000001"]),
    (["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam"], "--samples",
     ["--samples", "1000000"], ["--samples", "1000001"]),
    (["conjugacy", "semiverify", "--f", "logistic", "--g", "doubling", "--h", "sinsq",
      "--lo", "0", "--hi", "1"], "--samples", ["--samples", "1000000"], ["--samples", "1000001"]),
    (["conjugacy", "order", "--map", "pwl:0,1;1,0"], "--samples",
     ["--samples", "1000000"], ["--samples", "1000001"]),
    (["conjugacy", "order", "--map", "pwl:0,1;1,0"], "--p-max",
     ["--p-max", "1000", "--samples", "199"], ["--p-max", "1001", "--samples", "199"]),
    # no product of --samples and a triangular number is 10^8 itself
    (["conjugacy", "order", "--map", "pwl:0,1;1,0"], "--samples * --p-max * (--p-max + 1) / 2",
     ["--p-max", "1000", "--samples", "199"], ["--p-max", "1000", "--samples", "200"]),
    (["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam",
      "--lo", "0.1", "--hi", "0.2"], "--grid * (--depth + 1)",
     ["--grid", "100000", "--depth", "9"], ["--grid", "100001", "--depth", "9"]),
]


@pytest.mark.parametrize("base,size,at_cap,over_cap", _CAPPED,
                         ids=[f"{' '.join(c[0][:2])}:{c[1]}" for c in _CAPPED])
def test_size_caps_reject_before_computing(base, size, at_cap, over_cap, capsys):
    assert parse_args(base + at_cap).command  # accepted; not run, to keep the test small
    with pytest.raises(RangeError, match=f"^{re.escape(size)} [0-9]+ exceeds the cap"):
        parse_args(base + over_cap)
    code, out, err = run_cli(base + over_cap, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "exceeds the cap" in err


def test_size_caps_table_is_tested():
    table = {(name, check.size or arg.flag) for name, (_, _, args) in COMMANDS.items()
             for arg in args for check in arg.checks if isinstance(check, _Cap)}
    tested = {(parse_args(base + at_cap).command, size) for base, size, at_cap, _ in _CAPPED}
    assert tested == table


# options that every subcommand takes, which the synopsis need not list
_OUTPUT_OPTIONS = {"--format", "--output", "--timing"}


def test_readme_synopsis_matches_the_table():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Command-line interface", 1)[1].split("```\n", 2)[1]
    synopsis = {}
    for line in block.splitlines():
        if not line.startswith(" "):  # an indented line continues the one above
            name = line.split(" --", 1)[0]
            synopsis[name] = set()
        synopsis[name] |= set(re.findall(r"--[a-z][a-z0-9-]*", line)) - _OUTPUT_OPTIONS
    assert synopsis == {name: {arg.flag for arg in args}
                        for name, (_, _, args) in COMMANDS.items()}


# Argument values for the fuzzer: the floats that broke subcommands before,
# sizes small enough for a fast test (exhaustive collapse at 12 bits, not
# 24), and spec typos next to valid specs.
_FUZZ_FLOATS = ["0.3", "-0.5", "0", "-0", "2", "1e300", "1e-17", "-1e-3", "inf", "-inf", "nan",
                "-nan"]
_FUZZ_SIZES = ["-1", "0", "1", "3", "12", "50"]
_FUZZ_SPECS = {
    parse_map_spec: ["logistic", "tent", "quadratic", "cosine", "hyperbola:e=2,a=1",
                     "pwl:0,0;0.5,1;1,0", "conj:logistic|ulam", "tnet", "pwl:1;2",
                     "hyperbola:e=2", "conj:logistic|", "logistic:k=1"],
    parse_homeo_spec: ["ulam", "alpha", "reflect", "affine:p=2,q=0 o alpha", "power:g=0",
                       "ulm", "(ulam", "ulam o", "mobius:a=1"],
}


def _fuzz_values(arg):
    if arg.spec:
        return _FUZZ_SPECS[arg.spec]
    if "choices" in arg.options:
        return arg.options["choices"] + ["bogus"]
    return _FUZZ_SIZES if arg.options.get("type") is int else _FUZZ_FLOATS


@st.composite
def _fuzzed_argv(draw, complete=False):
    """An argv of a subcommand; complete keeps every required argument."""
    name = draw(st.sampled_from(list(COMMANDS)))
    argv = name.split()
    for arg in COMMANDS[name][2]:
        required = arg.options.get("required")
        # a required argument is dropped now and then, unless complete, an optional one often
        if draw(st.integers(0, 5 if required else 1)) == 0 and not (complete and required):
            continue
        argv.append(arg.flag)
        if arg.options.get("action") != "store_true":
            argv.append(draw(st.sampled_from(_fuzz_values(arg))))
    argv += draw(st.sampled_from([[], ["--format", "csv"], ["--format", "svg"], ["--timing"]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(_fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _failed_verdict(doc):
    result, tol = doc["result"], doc["inputs"].get("tol")
    if not isinstance(result, dict):  # a bare value: iterate's, say
        return False
    return (result.get("within_tolerance") is False or result.get("status") == "conflict"
            or ("statistic" in result and tol is not None and result["statistic"] >= tol))


# one failed verdict of each kind; few fuzzed argvs reach exit 1
@example(["conjugacy", "verify", "--f", "tent", "--g", "tent", "--h", "reflect"])
@example(["closed-form", "check", "--formula", "boole", "--lo", "-0.9", "--hi", "0.9",
          "--tol", "1e-300"])
@example(["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "affine:p=1,q=0",
          "--lo", "0.1", "--hi", "0.11", "--depth", "6", "--grid", "41", "--tol", "1e-3",
          "--format", "csv"])
@example(["rng", "ks", "--n", "2000", "--cdf", "uniform", "--tol", "1e-9"])
@given(_fuzzed_argv(complete=True))
def test_fuzzed_argv_keeps_the_verdict_contract(argv):
    # exit 1 means a failed verdict and nothing else; exits 2 and 3 print
    # nothing, and leave an --output file as it was; exits 0 and 1 write
    # it with what they print
    code, out = _stdout_of(argv)
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write("earlier output\n")
        assert _stdout_of(argv + ["--output", target]) == (code, "")
        with open(target, encoding="utf-8") as handle:
            written = handle.read()
    if code in (2, 3):
        assert out == ""
        assert written == "earlier output\n"
        return
    # only a measured time may differ between the two runs
    timed = re.compile(r'"elapsed_ms": [^\n]*')
    assert timed.sub("", written) == timed.sub("", out)
    if "--format" in argv:  # csv and svg carry no verdict: read the same run's json
        i = argv.index("--format")
        json_code, out = _stdout_of(argv[:i] + argv[i + 2:])
        assert json_code == code
    assert code in (0, 1)
    assert _failed_verdict(json.loads(out)) == (code == 1)


@pytest.mark.parametrize("argv, name", [
    (["iterate", "--map", "tent"], "iterate"), (["rng", "ks", "--n", "5"], "rng ks"),
    (["conjugacy", "verify"], "conjugacy verify"), (["rng"], None), (["rng ks"], None),
    (["iter"], None), (["ks", "rng"], None), (["iterate", "--help"], None),
    (["rng", "ks", "-h"], None), ([], None), (["--", "iterate"], None),
])
def test_named_command_is_an_exact_path_of_the_table(argv, name):
    assert _named_command(argv) == name


def _parsed(parser, argv):
    try:
        return repr(vars(parser.parse_args(argv)))  # repr: nan == nan
    except UsageError as exc:
        return f"usage error: {exc}"


@settings(max_examples=200, deadline=None)
@given(_fuzzed_argv())
def test_one_subcommand_parser_reads_argv_like_the_full_parser(argv):
    # what parse_args builds for an argv that names a subcommand
    assert _parsed(_build_parser(_named_command(argv)), argv) == _parsed(_build_parser(), argv)


@pytest.mark.parametrize("e, a", [
    (1.0, 1.0), (math.sqrt(2.0), 1.0), (math.inf, 1.0), (math.nan, 1.0), (1e200, 1.0),
    (math.sqrt(3.0), 0.0), (math.sqrt(3.0), -1.0), (math.sqrt(3.0), math.nan),
])
def test_hyperbola_parameters_have_one_rule(e, a, capsys):
    for build in (lambda: Hyperbola(e=e, a=a),
                  lambda: hyperbola_iterate(e, a, 2.0, 1),
                  lambda: fractional_iterate_hyperbola(e, a, 2.0, 2)):
        with pytest.raises(ParameterError):
            build()
    for argv in (["iterate", "--map", f"hyperbola:e={e!r},a={a!r}", "--x0", "2", "--n", "1"],
                 ["closed-form", "check", "--formula", "hyperbola", f"--e={e!r}", f"--a={a!r}",
                  "--lo", "2", "--hi", "3"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1


def test_cobweb_svg_leaves_out_overflowing_graph_points(capsys):
    # 2x^2 - 1 overflows inside the window that the orbit of 1e100 spans
    code, out, _ = run_cli(["cobweb", "--map", "quadratic", "--x0", "1e100", "--steps", "1",
                            "--format", "svg"], capsys)
    assert code == 0
    assert "inf" not in out and "nan" not in out
    assert '<polyline class="graph"' in out
