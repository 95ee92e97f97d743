"""Acceptance suite: every contract bound at its stated tolerance.

Each criterion prints one PASS/FAIL line (written past pytest's capture
so the lines always appear in the run log) and then asserts.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import sys
import time

import pytest

from intervaldyn import (Affine, AlphaArcsin, CompositionH, Conflict, Cosine,
                         Doubling, FixedPointWord, HalfTent, Hyperbola,
                         Logistic, Power, Quadratic, SineSquared, Tent,
                         UlamArcsin, affine_map, apply_homeo, arcsine_cdf,
                         boole_iterate, cobweb_path, conjugate_map,
                         crosscheck_closed_form, doubling_collapse, eval_map,
                         fractional_iterate_hyperbola,
                         fractional_iterate_quadratic, herschel_iterate,
                         herschel_relation_residual, hyperbola_iterate,
                         identity_map, iterate, ks_distance, logistic_sequence,
                         mobius_involution, orbit_consistency,
                         periodicity_order, propagate_partial_conjugacy,
                         reflect_map, square_distribution, transform_to,
                         uniformize, verify_conjugacy, verify_semiconjugacy,
                         zero_preimage_set)
from intervaldyn.chaos_rng import DEFAULT_SEED
from intervaldyn.cli import COMMANDS, main
from intervaldyn.homeos import PiecewiseLinearHomeo

SQRT3 = math.sqrt(3.0)


def report(name: str, ok: bool, detail: str):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def million_orbit():
    return logistic_sequence(DEFAULT_SEED, 10**6)


def test_c01_central_conjugacy():
    started = time.perf_counter()
    r = verify_conjugacy(Logistic(), Tent(), UlamArcsin(), 10**4)
    elapsed = time.perf_counter() - started
    ok = r.max_residual < 1e-12 and elapsed < 0.1
    report("C01 central conjugacy", ok,
           f"max residual {r.max_residual:.3e} < 1e-12, runtime {elapsed * 1e3:.1f} ms < 100 ms")


def test_c02_alpha_chain():
    g = conjugate_map(Logistic(), AlphaArcsin())
    ht = HalfTent()
    worst_map = 0.0
    for i in range(10**4):
        x = 0.5 * (i + 0.5) / 10**4
        worst_map = max(worst_map, abs(eval_map(g, x) - eval_map(ht, x)))

    comp = CompositionH(Affine(2.0, 0.0), AlphaArcsin())
    ulam = UlamArcsin()
    worst_h = 0.0
    for i in range(10**4 + 1):
        x = i / 10**4
        worst_h = max(worst_h, abs(apply_homeo(comp, x) - apply_homeo(ulam, x)))
    ok = worst_map < 1e-12 and worst_h < 1e-15
    report("C02 half-scale chain", ok,
           f"conjugate-vs-halftent {worst_map:.3e} < 1e-12, doubled-alpha-vs-ulam {worst_h:.3e} < 1e-15")


def test_c03_iterated_commutation():
    f, g, h = Logistic(), Tent(), UlamArcsin()
    worst = 0.0
    for i in range(10**3):
        x = (i + 0.5) / 10**3
        hx = apply_homeo(h, x)
        for n in range(11):
            worst = max(worst, abs(apply_homeo(h, iterate(f, x, n)) - iterate(g, hx, n)))
    ok = worst < 1e-10
    report("C03 iterated commutation", ok, f"max residual {worst:.3e} < 1e-10, n <= 10")


def test_c04_closed_forms():
    boole = crosscheck_closed_form(Quadratic(), boole_iterate, -1.0, 1.0, 10, 10**3)
    herschel = crosscheck_closed_form(Quadratic(), herschel_iterate, -1.0, 3.0, 10, 10**3)
    worst_hb = 0.0
    for i in range(10**3):
        t = -1.0 + 2.0 * i / 999
        for n in range(11):
            worst_hb = max(worst_hb, abs(herschel_iterate(t, n) - boole_iterate(t, n)))
    formula = lambda x, n: hyperbola_iterate(SQRT3, 1.0, x, n)
    hyper = crosscheck_closed_form(Hyperbola(e=SQRT3, a=1.0), formula, 2.0, 5.0, 4, 100)
    # herschel was held to 1e-6; the 60-digit oracle (tests/test_oracle.py)
    # supports 1e-9, about 130 times its 7.7e-12 here
    ok = (boole.max_deviation < 1e-9 and herschel.max_deviation < 1e-9
          and worst_hb < 1e-9 and hyper.max_deviation < 1e-9)
    report("C04 closed forms vs brute force", ok,
           f"boole {boole.max_deviation:.3e} < 1e-9, herschel {herschel.max_deviation:.3e} < 1e-9, "
           f"herschel-vs-boole {worst_hb:.3e} < 1e-9, hyperbola {hyper.max_deviation:.3e} < 1e-9")


def test_c05_fractional_iterates():
    worst_q = 0.0
    for n in (2, 3, 4):
        for i in range(200):
            x = 1.01 + (3.0 - 1.01) * i / 199
            y = x
            for _ in range(n):
                y = fractional_iterate_quadratic(y, n)
            worst_q = max(worst_q, abs(y - herschel_iterate(x, 1)))
    worst_h = 0.0
    for n in (2, 3, 4):
        for i in range(200):
            x = 2.0 + 3.0 * i / 199
            y = x
            for _ in range(n):
                y = fractional_iterate_hyperbola(SQRT3, 1.0, y, n)
            worst_h = max(worst_h, abs(y - hyperbola_iterate(SQRT3, 1.0, x, 1)))
    # were held to 1e-8; each bound is the sum of the 60-digit oracle's
    # envelopes of its two sides (tests/test_oracle.py), measured at
    # 1.5e-14 + 4.1e-15 and 2.7e-15 + 8.0e-16
    ok = worst_q < 2.5e-14 and worst_h < 4e-15
    report("C05 fractional iterates compose back", ok,
           f"quadratic {worst_q:.3e} < 2.5e-14, hyperbola {worst_h:.3e} < 4e-15, n in 2..4")


def test_c06_semiconjugacies():
    cos_leg = verify_semiconjugacy(Quadratic(), affine_map(2.0, 0.0, 0.0, 10.0),
                                   Cosine(), 0.0, 10.0, 10**4)
    sin_leg = verify_semiconjugacy(Logistic(), Doubling(), SineSquared(),
                                   0.0, 1.0, 10**4)
    ok = cos_leg.max_residual < 1e-12 and sin_leg.max_residual < 1e-12
    report("C06 semiconjugacies", ok,
           f"cosine double-angle {cos_leg.max_residual:.3e} < 1e-12, "
           f"sin^2 doubling-to-logistic {sin_leg.max_residual:.3e} < 1e-12")


def test_c07_mobius_family():
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 20:
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        if abs(a * b - 1.0) > 0.1:
            pairs.append((a, b))
    worst_inv, worst_rel = 0.0, 0.0
    for a, b in pairs:
        pole = -1.0 / b if b != 0.0 else None
        lo = pole + 0.1 if pole is not None and 0.0 <= pole <= 3.0 else 0.0
        phi = mobius_involution(a, b, lo=lo, hi=lo + 3.0)
        for i in range(200):
            x = lo + 3.0 * i / 199
            worst_inv = max(worst_inv, abs(apply_homeo(phi, apply_homeo(phi, x)) - x))
        worst_rel = max(worst_rel, herschel_relation_residual(
            lambda t: a + b * t, phi, lo, lo + 3.0, 200))
    ok = worst_inv < 1e-12 and worst_rel < 1e-12
    report("C07 mobius involutions", ok,
           f"20 pairs, |ab-1| > 0.1: self-composition {worst_inv:.3e} < 1e-12, "
           f"functional relation {worst_rel:.3e} < 1e-12")


def test_c08_periodicity_orders():
    rng = random.Random(20250808)
    ok = periodicity_order(reflect_map(), 5, 10**3, 1e-10) == 2
    ok = ok and periodicity_order(identity_map(), 5, 10**3, 1e-10) == 1
    for trial in range(10):
        if trial % 2 == 0:
            h = Power(rng.uniform(0.4, 3.0))
        else:
            k = rng.randint(1, 3)
            xs = sorted(rng.uniform(0.05, 0.95) for _ in range(k))
            ys = sorted(rng.uniform(0.05, 0.95) for _ in range(k))
            h = PiecewiseLinearHomeo([(0.0, 0.0)] + list(zip(xs, ys)) + [(1.0, 1.0)])
        ok = ok and periodicity_order(conjugate_map(reflect_map(), h), 5, 10**3, 1e-10) == 2
    ok = ok and periodicity_order(Logistic(), 6, 10**3, 1e-10) is None
    ok = ok and periodicity_order(Tent(), 6, 10**3, 1e-10) is None
    report("C08 periodicity orders", ok,
           "reflect and 10 random conjugates have order 2, identity 1, logistic/tent none")


def test_c09_fold_obstruction():
    conflict = orbit_consistency(Logistic(), Tent(), [(0.3, 0.3), (0.7, 0.6)], 1, 1e-9)
    ok = isinstance(conflict, Conflict) and conflict.step == 1

    h = UlamArcsin()
    table = propagate_partial_conjugacy(Logistic(), Tent(), 0.1, 0.11, h, 6, 41, 1e-3)
    ok = ok and not isinstance(table, Conflict)
    worst = max(abs(y - apply_homeo(h, x)) for x, y in table) if ok else math.inf
    ok = ok and worst < 1e-9
    report("C09 fold obstruction and propagation", ok,
           f"(0.3, 0.7) conflict at step 1; true-seed table stays {worst:.3e} < 1e-9 off its graph")


def test_c10_cobweb_convergence():
    path = cobweb_path(Cosine(), 1.0, 200)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    gap = abs(path.limit - root) if path.converged else math.inf
    ok = path.converged and gap < 1e-9
    report("C10 cobweb convergence", ok,
           f"limit off the bisection root by {gap:.3e} < 1e-9")


def test_c11_ulam_density_criterion():
    ok = True
    for k in range(1, 11):
        pset = zero_preimage_set(Tent(), k)
        ok = ok and len(pset.points) == 2 ** (k - 1) + 1
        ok = ok and pset.largest_gap == 2.0 ** (1 - k)
    from intervaldyn import PiecewiseLinear, Unimodal
    truncated = Unimodal(v=0.5,
                         left=PiecewiseLinear([(0.0, 0.0), (0.5, 0.8)]),
                         right=PiecewiseLinear([(0.5, 0.8), (1.0, 0.0)]))
    for k in range(1, 7):
        ok = ok and zero_preimage_set(truncated, k).largest_gap == 1.0
    report("C11 zero-preimage density", ok,
           "tent: exactly 2^(k-1)+1 points, gap exactly 2^(1-k), k <= 10; "
           "height-0.8 tent: gap 1 at every depth <= 6")


def test_c12_distribution_checks(million_orbit):
    d_raw = ks_distance(million_orbit.values, arcsine_cdf)
    uni = uniformize(million_orbit)
    d_uni = ks_distance(uni, lambda x: x)
    squared = transform_to(uni, square_distribution())
    d_sq = ks_distance(squared, lambda x: x * x)
    ok = d_raw < 0.01 and d_uni < 0.01 and d_sq < 0.01
    report("C12 distribution checks", ok,
           f"10^6 steps from {DEFAULT_SEED}: arcsine {d_raw:.4f}, uniform {d_uni:.4f}, "
           f"F(x)=x^2 {d_sq:.4f}, all < 0.01")


def test_c13_finite_precision_collapse():
    started = time.perf_counter()
    failures = 0
    worst = 0
    for value in range(2**16):
        steps = doubling_collapse(FixedPointWord(16, value), 16)
        if steps is None:
            failures += 1
        else:
            worst = max(worst, steps)
    elapsed = time.perf_counter() - started
    ok = failures == 0 and worst <= 16 and elapsed < 1.0
    report("C13 finite-precision collapse", ok,
           f"all 65536 words collapse within {worst} <= 16 steps, "
           f"{failures} failures, {elapsed:.2f} s < 1 s")


def test_c14_sensitivity():
    from intervaldyn import sensitivity_report
    seps = sensitivity_report(Logistic(), 0.123456789, 1e-9, 40)
    first_escape = next((k for k, s in enumerate(seps) if s > 0.1), None)
    ok = first_escape is not None and first_escape <= 40
    report("C14 sensitive dependence", ok,
           f"orbits from 0.123456789 and +1e-9 separate beyond 0.1 at step {first_escape} <= 40")


_CLI_DETERMINISM_CASES = [
    ["iterate", "--map", "logistic", "--x0", "0.2", "--n", "3"],
    ["orbit", "--map", "tent", "--x0", "0.2", "--n", "8"],
    ["fixed-points", "--map", "logistic", "--lo", "0.01", "--hi", "0.99"],
    ["closed-form", "check", "--formula", "boole", "--lo", "-1", "--hi", "1",
     "--n-max", "6", "--samples", "100"],
    ["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam",
     "--samples", "500"],
    ["conjugacy", "semiverify", "--f", "quadratic", "--g", "pwl:0,0;10,20",
     "--h", "cosine", "--lo", "0", "--hi", "10", "--samples", "500"],
    ["conjugacy", "order", "--map", "pwl:0,1;1,0"],
    ["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam",
     "--lo", "0.1", "--hi", "0.11", "--depth", "4", "--grid", "11"],
    ["cobweb", "--map", "cosine", "--x0", "1.0", "--steps", "50"],
    ["density", "--map", "tent", "--depth", "6"],
    ["rng", "generate", "--n", "50", "--seed", "0.123456789"],
    ["rng", "ks", "--n", "2000", "--cdf", "uniform", "--seed", "0.123456789"],
    ["rng", "collapse", "--bits", "10", "--exhaustive"],
    ["sensitivity", "--map", "logistic", "--x0", "0.123456789", "--delta", "1e-9",
     "--n", "20"],
]


def test_c15_cli_contract(capsys):
    def run_once(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    ok = True
    for argv in _CLI_DETERMINISM_CASES:
        for fmt in ("json", "csv"):
            full = argv + ["--format", fmt]
            code1, out1 = run_once(full)
            code2, out2 = run_once(full)
            ok = ok and code1 == code2 and out1 == out2 and out1 != ""
    code1, svg1 = run_once(_CLI_DETERMINISM_CASES[8] + ["--format", "svg"])
    code2, svg2 = run_once(_CLI_DETERMINISM_CASES[8] + ["--format", "svg"])
    ok = ok and svg1 == svg2 and code1 == code2 == 0

    # exit-code contract
    code_ok, _ = run_once(["conjugacy", "verify", "--f", "logistic", "--g", "tent",
                           "--h", "ulam", "--samples", "100"])
    code_tol, _ = run_once(["conjugacy", "verify", "--f", "tent", "--g", "tent",
                            "--h", "reflect", "--samples", "100"])
    code_usage = main(["iterate", "--map", "nosuchmap", "--x0", "0.1", "--n", "1"])
    capsys.readouterr()
    code_domain = main(["iterate", "--map", "logistic", "--x0", "2.0", "--n", "1"])
    capsys.readouterr()
    codes = (code_ok, code_tol, code_usage, code_domain)
    ok = ok and codes == (0, 1, 2, 3)
    report("C15 CLI determinism and exit codes", ok,
           f"byte-identical reruns for all 14 subcommands (json+csv, cobweb svg); "
           f"exit codes {codes} == (0, 1, 2, 3)")


# edge cases beyond C15: exit 1 verdicts, null cells, the other stages,
# cdfs and formulas, a non-dyadic density map and an empty root list
_GOLDEN_EDGE_CASES = [
    ["conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "affine:p=1,q=0",
     "--lo", "0.1", "--hi", "0.11", "--depth", "6", "--grid", "41", "--tol", "1e-3"],
    ["conjugacy", "verify", "--f", "tent", "--g", "tent", "--h", "reflect", "--samples", "100"],
    ["conjugacy", "order", "--map", "logistic"],
    ["rng", "collapse", "--bits", "8", "--value", "5", "--max-steps", "2"],
    ["rng", "collapse", "--bits", "3", "--value", "5"],
    ["rng", "ks", "--n", "2000", "--cdf", "uniform", "--seed", "0.123456789", "--tol", "1e-9"],
    ["rng", "ks", "--n", "2000", "--cdf", "arcsine", "--seed", "0.123456789"],
    ["rng", "ks", "--n", "2000", "--cdf", "square", "--seed", "0.123456789"],
    ["closed-form", "check", "--formula", "hyperbola", "--e", "1.7320508075688772", "--a", "1",
     "--lo", "2", "--hi", "5", "--n-max", "4", "--samples", "50"],
    ["closed-form", "check", "--formula", "herschel", "--lo", "-1", "--hi", "1",
     "--n-max", "6", "--samples", "100"],
    ["density", "--map", "pwl:0,0;0.4,1;1,0", "--depth", "7"],
    ["rng", "generate", "--n", "20", "--seed", "0.123456789", "--stage", "uniform"],
    ["rng", "generate", "--n", "20", "--seed", "0.123456789", "--stage", "square"],
    ["fixed-points", "--map", "tent", "--lo", "0.6", "--hi", "0.62"],
    # orbits that land on 1.0 and 0.0, so the orbit loop snaps and the
    # arcsine CDF evaluates at the endpoints
    ["orbit", "--map", "tent", "--x0", "0.5", "--n", "3"],
    ["rng", "generate", "--n", "5", "--seed", "0.5"],
    ["rng", "generate", "--n", "5", "--seed", "0.5", "--stage", "uniform"],
    ["rng", "ks", "--n", "20", "--seed", "0.5", "--cdf", "arcsine"],
    # Infinity and -0 in a list of floats
    ["orbit", "--map", "quadratic", "--x0", "1e200", "--n", "3"],
    ["orbit", "--map", "verhulst:m=1,n=1", "--x0", "-0.0", "--n", "2"],
    ["cobweb", "--map", "tent", "--x0", "0.5", "--steps", "3"],
    # piecewise-linear solves: pullback brackets that cross knots, and
    # pwlh inverses with increasing and with decreasing ordinates
    ["density", "--map", "pwl:0,0;0.2,0.5;0.45,1;0.7,0.6;1,0", "--depth", "8"],
    ["conjugacy", "order", "--map", "conj:pwl:0,1;1,0|pwlh:0,0;0.3,0.6;1,1", "--samples", "200"],
    ["orbit", "--map", "conj:tent|pwlh:0,1;0.25,0.8;0.6,0.3;1,0", "--x0", "0.3", "--n", "6"],
    # the 0th iterate where both characteristic roots are infinite
    ["closed-form", "check", "--formula", "herschel", "--lo", "1e200", "--hi", "2e200",
     "--n-max", "0", "--samples", "3"],
    # outputs longer than one block of the writers: a sample and a cobweb
    # polyline of more than 5000 values
    ["rng", "generate", "--n", "5000", "--seed", "0.123456789", "--stage", "square"],
    ["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "2500"],
    # bisection: fixed-point cells narrower than --tol, refinement down to
    # adjacent floats, a pwlh inverse of about 86 halvings, pwlh orbits
    # and a pwl pullback
    ["fixed-points", "--map", "cosine", "--lo", "-1", "--hi", "2", "--tol", "0.01"],
    ["fixed-points", "--map", "sinsq", "--lo", "0.1", "--hi", "1", "--tol", "1e-300"],
    ["iterate", "--map", "conj:logistic|pwlh:0,0;1e12,1", "--x0", "3e-13", "--n", "3"],
    ["orbit", "--map", "conj:tent|pwlh:0,0;0.3,0.7;1,1", "--x0", "0.2", "--n", "50"],
    ["density", "--map", "pwl:0,0;0.3,1;1,0", "--depth", "9"],
    # a fixed-point midpoint whose sum overflows, a sign change whose
    # product underflows, a pwlh inverse that needs more than 100 halvings,
    # and a pwlh bracket no wider than the tolerance, which is not halved
    ["fixed-points", "--map", "verhulst:m=2,n=7.7e-309", "--lo", "1.29865e308",
     "--hi", "1.29875e308", "--tol", "1e290"],
    ["fixed-points", "--map", "conj:tent|affine:p=1e-170,q=0", "--lo", "0", "--hi", "1e-170",
     "--tol", "1e-190"],
    ["iterate", "--map", "conj:logistic|pwlh:0,0;1e20,1", "--x0", "1e-21", "--n", "1"],
    ["iterate", "--map", "conj:halftent|pwlh:0,0;1e-15,1", "--x0", "0.3", "--n", "1"],
    # grids whose (hi - lo) * (samples - 1) overflows although hi - lo is finite
    ["fixed-points", "--map", "verhulst:m=2,n=7.7e-309", "--lo", "1e308", "--hi", "1.7e308",
     "--tol", "1e-3"],
    ["cobweb", "--map", "cosine", "--x0", "1e306", "--steps", "1"],
    # cobweb orbits of render.BLOCK / 2 and render.BLOCK values, one less
    # and one more: the logistic map, and the tent orbit that reaches the
    # window's ends 1.0 and 0.0 and then stays at 0.0
    ["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "2046"],
    ["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "2047"],
    ["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "2048"],
    ["cobweb", "--map", "tent", "--x0", "0.5", "--steps", "4094"],
    ["cobweb", "--map", "tent", "--x0", "0.5", "--steps", "4095"],
    ["cobweb", "--map", "tent", "--x0", "0.5", "--steps", "4096"],
    # KS on tie-heavy samples: the orbit of 0.5 is 0.5, 1.0 and then 0.0
    # over several runs of the sort, and the fixed point 0.75 repeats
    ["rng", "ks", "--n", "10000", "--seed", "0.5", "--cdf", "arcsine"],
    ["rng", "ks", "--n", "10000", "--seed", "0.5", "--cdf", "uniform"],
    ["rng", "ks", "--n", "10000", "--seed", "0.5", "--cdf", "square"],
    ["rng", "ks", "--n", "5000", "--seed", "0.75", "--cdf", "uniform"],
    # samples of n + 1 values: one KS chunk of 4096 values, one and two
    # past it, and two chunks and one value; and the JSON writer's last
    # block of 4096 values one value short, full, and of 1 or 2 values
    *[["rng", "ks", "--n", n, "--seed", "0.123456789", "--cdf", cdf]
      for n in ("4095", "4096", "4097", "8192") for cdf in ("arcsine", "uniform", "square")],
    *[["rng", "generate", "--n", n, "--seed", "0.123456789"]
      for n in ("4094", "4095", "4096", "4097")],
    # residual checks whose g (verify) or h (semiverify) has a domain that
    # cannot be built: the error names the first grid point
    ["conjugacy", "verify", "--f", "logistic", "--g", "conj:tent|(pwlh:0,0;0.5,1 o ulam)",
     "--h", "ulam", "--samples", "10"],
    ["conjugacy", "semiverify", "--f", "logistic", "--g", "doubling",
     "--h", "conj:tent|(pwlh:0,0;0.5,1 o ulam)", "--lo", "0", "--hi", "1", "--samples", "10"],
    # images on a closed end (logistic(0.5) = 1.0), within 1e-12 beyond
    # one, which snap moves onto it, and further beyond, which fails
    ["conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam", "--samples", "11"],
    ["conjugacy", "verify", "--f", "pwl:0,0;0.5,1.0000000000005;1,0", "--g", "tent",
     "--h", "ulam", "--samples", "11"],
    ["conjugacy", "semiverify", "--f", "tent", "--g", "pwl:0,-5e-13;0.5,1.0000000000005;1,0",
     "--h", "sinsq", "--lo", "0", "--hi", "1", "--samples", "10"],
    ["conjugacy", "verify", "--f", "pwl:0,0;0.5,1.5;1,0", "--g", "tent", "--h", "ulam",
     "--samples", "10"],
    # the power form across |x| = 1 and across 1.34e154, where both
    # characteristic roots become infinite
    ["closed-form", "check", "--formula", "herschel", "--lo", "0.9999999", "--hi", "1.0000001",
     "--n-max", "10", "--samples", "51"],
    ["closed-form", "check", "--formula", "herschel", "--lo", "-1.0000001", "--hi", "-0.9999999",
     "--n-max", "10", "--samples", "51"],
    ["closed-form", "check", "--formula", "herschel", "--lo", "1e154", "--hi", "2e154",
     "--n-max", "3", "--samples", "5"],
    # pwlh inverses on [0, 1]: targets on an interior knot ordinate and 1, 8
    # and 16 ulps off it, a target whose preimage is the first midpoint 0.5,
    # decreasing knots, ordinates at 1e-300, 1e300 and subnormal scale, a
    # 4-knot order, and a pwlh on [0, 2], whose inverse is the bisection loop
    ["iterate", "--map", "conj:tent|pwlh:0,0;0.3,0.6;1,1", "--x0", "0.6", "--n", "1"],
    ["iterate", "--map", "conj:tent|pwlh:0,0;0.3,0.6;1,1", "--x0", "0.6000000000000001",
     "--n", "1"],
    ["iterate", "--map", "conj:tent|pwlh:0,0;0.3,0.6;1,1", "--x0", "0.5999999999999991",
     "--n", "1"],
    ["orbit", "--map", "conj:tent|pwlh:0,0;0.3,0.6;1,1", "--x0", "0.6000000000000018",
     "--n", "8"],
    ["orbit", "--map", "conj:logistic|pwlh:0,0;0.25,0.5;1,1", "--x0", "0.6666666666666666",
     "--n", "3"],
    ["orbit", "--map", "conj:tent|pwlh:0,1;0.25,0.8;0.6,0.3;1,0", "--x0", "0.8", "--n", "8"],
    ["orbit", "--map", "conj:tent|pwlh:0,1;0.25,0.8;0.6,0.3;1,0", "--x0",
     "0.30000000000000004", "--n", "8"],
    ["orbit", "--map", "conj:logistic|pwlh:0,0;0.4,3e-301;1,1e-300", "--x0", "2e-301",
     "--n", "8"],
    ["orbit", "--map", "conj:logistic|pwlh:0,-1e300;0.7,2e299;1,1e300", "--x0", "2e299",
     "--n", "8"],
    ["iterate", "--map", "conj:tent|pwlh:0,0;0.6,1e-320;1,2e-320", "--x0", "1.5e-320",
     "--n", "3"],
    ["conjugacy", "order", "--map", "conj:pwl:0,1;1,0|pwlh:0,0;0.2,0.3;0.7,0.6;1,1",
     "--samples", "200"],
    ["conjugacy", "order", "--map", "conj:pwl:0,2;2,0|pwlh:0,0;0.5,1.5;2,2", "--samples", "200"],
    ["orbit", "--map", "conj:pwl:0,2;2,0|pwlh:0,0;0.5,1.5;2,2", "--x0", "0.3", "--n", "4"],
    # zero-preimage levels: the logistic and a conjugated tent through
    # _bisect_monotone, the tent at the depth cap, a deep pwl pullback, and
    # a pwl map lifted off 0 whose every level is empty
    ["density", "--map", "logistic", "--depth", "10"],
    ["density", "--map", "conj:tent|power:g=1.5", "--depth", "9"],
    ["density", "--map", "tent", "--depth", "20"],
    ["density", "--map", "pwl:0,0;0.4123,1;1,0", "--depth", "14"],
    ["density", "--map", "pwl:0,1e-10;0.5,1;1,1e-10", "--depth", "5"],
]

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_cli.json")

# argparse wraps help text to the terminal width; the goldens are made and
# replayed at this width, which is also what a process without a terminal gets
GOLDEN_COLUMNS = "80"

# every help screen (the top level, each group, each subcommand), and usage
# errors: an unknown subcommand, no subcommand, a group without a leaf, an
# unknown leaf, an unknown option, a bad choice, a missing argument, a bad
# spec, and argvs with several faults, where the tolerance check wins over
# the size cap, and the size cap over the spec
_GOLDEN_USAGE_CASES = (
    [["--help"]]
    + [[group, "--help"] for group in dict.fromkeys(n.split()[0] for n in COMMANDS if " " in n)]
    + [name.split() + ["--help"] for name in COMMANDS]
    + [["bogus"], [], ["rng"], ["conjugacy", "nope"],
       ["iterate", "--map", "logistic", "--x0", "0.3", "--n", "1", "--bogus"],
       ["rng", "ks", "--n", "5", "--cdf", "bogus"],
       ["rng", "ks", "--n", "5"],
       ["conjugacy", "verify", "--f", "nosuch", "--g", "tent", "--h", "ulam", "--tol", "-1",
        "--samples", "2000000"],
       ["conjugacy", "verify", "--f", "nosuch", "--g", "tent", "--h", "ulam",
        "--samples", "2000000"],
       ["iterate", "--map", "nosuchmap", "--x0", "0.3", "--n", "1"]])


def golden_argvs() -> list[list[str]]:
    """Every C15 and edge case in each output format (svg is a usage
    error except for cobweb), then the help screens and usage errors."""
    return [argv + ["--format", fmt] for argv in _CLI_DETERMINISM_CASES + _GOLDEN_EDGE_CASES
            for fmt in ("json", "csv", "svg")] + [list(argv) for argv in _GOLDEN_USAGE_CASES]


def run_golden(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv) at GOLDEN_COLUMNS columns;
    a help screen exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = GOLDEN_COLUMNS
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return code, out.getvalue(), err.getvalue()


def test_cli_golden_bytes():
    # stored exit code, stdout and stderr of every golden case; regenerate
    # with tests/make_golden_cli.py only for an intended output change
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert [case["argv"] for case in golden] == golden_argvs()
    for case in golden:
        assert run_golden(case["argv"]) == (case["code"], case["stdout"], case["stderr"]), \
            case["argv"]


def test_golden_check_mode_names_every_drifted_case(capsys):
    from make_golden_cli import check
    cases = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert check(cases) == 0
    for k in (3, 40):
        cases[k]["stdout"] += " "
    cases[50]["code"] += 1
    cases[-1]["stderr"] += " "
    assert check(cases) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("differs: ")] == [
        "differs: " + " ".join(cases[k]["argv"]) for k in (3, 40, 50, len(cases) - 1)]
    assert check(cases[:-1]) == 1
