"""Seeded workloads: the argv lists the benchmark feeds to intervaldyn, and
the check each invocation's output must pass.

The program only ever sees the generated argv. The benchmark seed picks
the orbit seed, the interval offsets, the knots and the turning point;
sizes are fixed here so that every seed does the same amount of work.
README.md in this directory explains why each workload was chosen.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

# Sizes. One pass of a workload (its whole argv list) takes 1 to 3 s on a
# 2-core Xeon, so a 30 s run collects enough passes for a steady median.
RNG_N = 200_000
COBWEB_STEPS = 50_000
VERIFY_SAMPLES = 50_000
CLOSED_FORM_SAMPLES = 2_000
CLOSED_FORM_N_MAX = 10
ORDER_SAMPLES = 5_000
PROPAGATE_DEPTH = 12
PROPAGATE_GRID = 1_001
TENT_DEPTH = 15
PWL_DEPTH = 11

# Output checks. These bounds are looser than the CLI's own tolerances so
# that either verdict of a borderline check (see README.md) is accepted as
# long as the exit code agrees with the reported result.
KS_BOUND = 0.01
RESIDUAL_BOUND = 1e-10
HERSCHEL_BOUND = 1e-6
ULAM_TABLE_BOUND = 1e-9

OUTPUT = "{output}"  # replaced by a path inside the run's own directory


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv and the check of (exit code, output bytes)."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, bytes], Optional[str]]
    suffix: str = ".out"

    @property
    def writes_file(self) -> bool:
        return OUTPUT in self.argv

    def resolve(self, output_path: str) -> list[str]:
        return [output_path if a == OUTPUT else a for a in self.argv]

    @property
    def depth(self) -> Optional[int]:
        """The --depth requested, for the preimage level ratio."""
        if "--depth" in self.argv and self.argv[0] == "density":
            return int(self.argv[self.argv.index("--depth") + 1])
        return None


def _num(v: float) -> str:
    return repr(float(v))


def _ulam(x: float) -> float:
    return 2.0 * (math.asin(math.sqrt(x)) / math.pi)


def _doc(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _verdict(code: int, ok: bool) -> Optional[str]:
    expected = 0 if ok else 1
    if code != expected:
        return f"exit code {code} disagrees with the reported verdict (expected {expected})"
    return None


# --- checks -------------------------------------------------------------------


def _check_generate(n: int, seed: float):
    def check(code: int, data: bytes) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        doc = _doc(data)
        if doc["inputs"]["seed"] != seed:
            return f"seed echoed as {doc['inputs']['seed']!r}"
        values = doc["result"]["values"]
        if len(values) != n + 1:
            return f"{len(values)} values, expected {n + 1}"
        if not all(0.0 <= v <= 1.0 for v in values):
            return "a value lies outside [0, 1]"
        return None
    return check


def _check_ks(code: int, data: bytes) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    statistic = _doc(data)["result"]["statistic"]
    if not statistic < KS_BOUND:
        return f"KS statistic {statistic!r} not below {KS_BOUND}"
    return None


_COBWEB_POINTS = re.compile(rb'class="cobweb"[^>]*points="([^"]*)"')


def _check_cobweb_svg(steps: int):
    def check(code: int, data: bytes) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        match = _COBWEB_POINTS.search(data)
        if match is None:
            return "no cobweb polyline"
        count = len(match.group(1).split())
        if count != 2 * steps + 1:
            return f"cobweb polyline has {count} points, expected {2 * steps + 1}"
        return None
    return check


def _check_residual(key: str, bound: float):
    def check(code: int, data: bytes) -> Optional[str]:
        result = _doc(data)["result"]
        bad = _verdict(code, result["within_tolerance"])
        if bad:
            return bad
        if not result[key] < bound:
            return f"{key} {result[key]!r} not below {bound}"
        return None
    return check


def _check_order(code: int, data: bytes) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    order = _doc(data)["result"]["order"]
    return None if order == 2 else f"order {order!r}, expected 2"


def _check_propagate(code: int, data: bytes) -> Optional[str]:
    result = _doc(data)["result"]
    status = result["status"]
    if status not in ("consistent", "conflict"):
        return f"unknown status {status!r}"
    bad = _verdict(code, status == "consistent")
    if bad or status == "conflict":
        return bad
    if result["entries"] != len(result["table"]):
        return "entry count disagrees with the table"
    worst = max(abs(_ulam(x) - y) for x, y in result["table"])
    if not worst <= ULAM_TABLE_BOUND:
        return f"consistent table strays {worst!r} from ulam"
    return None


def _check_tent_density(depth: int):
    def check(code: int, data: bytes) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        result = _doc(data)["result"]
        if result["count"] != 2 ** (depth - 1) + 1:
            return f"count {result['count']}, expected {2 ** (depth - 1) + 1}"
        if result["largest_gap"] != 2.0 ** (1 - depth):
            return f"largest gap {result['largest_gap']!r}, expected {2.0 ** (1 - depth)!r}"
        return None
    return check


def _check_density_csv(depth: int):
    def check(code: int, data: bytes) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        lines = data.decode("utf-8").splitlines()
        if lines[0] != "depth,count,largest_gap":
            return f"bad header {lines[0]!r}"
        depths = [int(line.split(",")[0]) for line in lines[1:]]
        if depths != list(range(1, depth + 1)):
            return f"rows for depths {depths}, expected 1..{depth}"
        return None
    return check


# --- workloads ----------------------------------------------------------------


def _orbit_seed(rng: random.Random) -> float:
    # stay clear of 0.5 and 0.75 and their preimage 0.25, which reach a
    # fixed point of the logistic map within two steps, and of seeds whose
    # binary64 orbit repeats a value within RNG_N steps: about 1 seed in
    # 100 lands exactly on 1.0 and then stays at 0, the finite-precision
    # collapse chaos_rng describes, and its sample is not arcsine-distributed
    while True:
        x0 = rng.uniform(0.05, 0.95)
        if all(abs(x0 - d) > 0.01 for d in (0.25, 0.5, 0.75)) and _orbit_is_long(x0, RNG_N):
            return x0


def _orbit_is_long(x: float, n: int) -> bool:
    """Whether the logistic orbit x, 4x(1-x), ... has n+1 distinct values."""
    seen = set()
    for _ in range(n + 1):
        if x in seen:
            return False
        seen.add(x)
        x = 4.0 * x * (1.0 - x)
    return True


def orbit_stream(rng: random.Random) -> list[Invocation]:
    x0 = _orbit_seed(rng)
    return [
        Invocation("rng-generate",
                   ("rng", "generate", "--n", str(RNG_N), "--seed", _num(x0),
                    "--stage", "square", "--output", OUTPUT),
                   _check_generate(RNG_N, x0), ".json"),
        Invocation("rng-ks",
                   ("rng", "ks", "--n", str(RNG_N), "--seed", _num(x0), "--cdf", "arcsine"),
                   _check_ks),
        Invocation("cobweb-svg",
                   ("cobweb", "--map", "logistic", "--x0", _num(x0), "--steps",
                    str(COBWEB_STEPS), "--format", "svg", "--output", OUTPUT),
                   _check_cobweb_svg(COBWEB_STEPS), ".svg"),
    ]


def verify_grid(rng: random.Random) -> list[Invocation]:
    semi_lo, semi_hi = rng.uniform(0.0, 0.01), 1.0 - rng.uniform(0.0, 0.01)
    cf_lo, cf_hi = -1.0 - rng.uniform(0.0, 0.05), 3.0 + rng.uniform(0.0, 0.05)
    k, k2 = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
    prop_lo = rng.uniform(0.05, 0.85)
    samples = str(VERIFY_SAMPLES)
    return [
        Invocation("verify",
                   ("conjugacy", "verify", "--f", "logistic", "--g", "tent", "--h", "ulam",
                    "--samples", samples),
                   _check_residual("max_residual", RESIDUAL_BOUND)),
        Invocation("semiverify",
                   ("conjugacy", "semiverify", "--f", "logistic", "--g", "doubling",
                    "--h", "sinsq", f"--lo={_num(semi_lo)}", f"--hi={_num(semi_hi)}",
                    "--samples", samples),
                   _check_residual("max_residual", RESIDUAL_BOUND)),
        Invocation("closed-form",
                   ("closed-form", "check", "--formula", "herschel",
                    f"--lo={_num(cf_lo)}", f"--hi={_num(cf_hi)}",
                    "--n-max", str(CLOSED_FORM_N_MAX), "--samples", str(CLOSED_FORM_SAMPLES)),
                   _check_residual("max_deviation", HERSCHEL_BOUND)),
        Invocation("order",
                   ("conjugacy", "order", "--map",
                    f"conj:pwl:0,1;1,0|pwlh:0,0;{_num(k)},{_num(k2)};1,1",
                    "--samples", str(ORDER_SAMPLES)),
                   _check_order),
        Invocation("propagate",
                   ("conjugacy", "propagate", "--f", "logistic", "--g", "tent", "--h", "ulam",
                    f"--lo={_num(prop_lo)}", f"--hi={_num(prop_lo + 0.01)}",
                    "--depth", str(PROPAGATE_DEPTH), "--grid", str(PROPAGATE_GRID)),
                   _check_propagate),
    ]


def preimage_density(rng: random.Random) -> list[Invocation]:
    v = rng.uniform(0.3, 0.7)
    return [
        Invocation("density-tent", ("density", "--map", "tent", "--depth", str(TENT_DEPTH)),
                   _check_tent_density(TENT_DEPTH)),
        Invocation("density-pwl-csv",
                   ("density", "--map", f"pwl:0,0;{_num(v)},1;1,0", "--depth", str(PWL_DEPTH),
                    "--format", "csv"),
                   _check_density_csv(PWL_DEPTH), ".csv"),
    ]


WORKLOADS = {
    "orbit-stream": orbit_stream,
    "verify-grid": verify_grid,
    "preimage-density": preimage_density,
}


def build(name: str, seed: int) -> list[Invocation]:
    return WORKLOADS[name](random.Random(seed))
