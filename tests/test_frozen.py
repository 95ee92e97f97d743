"""The immutable value classes: one instance of each, against the repr,
equality, hashing, immutability and spec round trip it has always had."""

import re

import pytest

from intervaldyn.analysis import CobwebPath, DensityReport, PreimageSet
from intervaldyn.chaos_rng import FixedPointWord
from intervaldyn.cli import Result, RunConfig, _Cap
from intervaldyn.closed_form import CrosscheckReport
from intervaldyn.conjugacy import Conflict, ConjugacyReport
from intervaldyn.homeos import (Affine, AlphaArcsin, CompositionH, Mobius, PiecewiseLinearHomeo,
                                Power, Reflect, UlamArcsin, parse_homeo_spec)
from intervaldyn.interval import Interval
from intervaldyn.maps import (Conjugated, Cosine, Doubling, HalfTent, Hyperbola, Logistic, Orbit,
                              PiecewiseLinear, Quadratic, SineSquared, Tent, Unimodal, Verhulst,
                              parse_map_spec)

# a fresh instance of each class per call
INSTANCES = {
    "Interval": lambda: Interval(0.0, 1.0, hi_closed=False),
    "Orbit": lambda: Orbit(values=(0.25, 0.75)),
    "Logistic": Logistic,
    "Tent": Tent,
    "HalfTent": HalfTent,
    "Quadratic": Quadratic,
    "Doubling": Doubling,
    "Cosine": Cosine,
    "SineSquared": SineSquared,
    "Hyperbola": lambda: Hyperbola(e=2.0, a=1.0),
    "Verhulst": lambda: Verhulst(m=4.0, n=4.0),
    "PiecewiseLinear": lambda: PiecewiseLinear([(0, 0), (0.5, 1), (1, 0)]),
    "Unimodal": lambda: Unimodal(0.5, PiecewiseLinear([(0, 0), (1, 2)]),
                                 PiecewiseLinear([(0, 2), (1, 0)])),
    "Conjugated": lambda: Conjugated(Logistic(), UlamArcsin()),
    "UlamArcsin": UlamArcsin,
    "AlphaArcsin": AlphaArcsin,
    "Affine": lambda: Affine(2.0, 1.0),
    "Power": lambda: Power(0.5),
    "Mobius": lambda: Mobius(a=0.5, b=0.25),
    "PiecewiseLinearHomeo": lambda: PiecewiseLinearHomeo([(0, 0), (0.3, 0.6), (1, 1)]),
    "Reflect": Reflect,
    "CompositionH": lambda: CompositionH(outer=Affine(2.0, 0.0), inner=AlphaArcsin()),
    "CobwebPath": lambda: CobwebPath(values=(0.5, 1.0), converged=False, limit=None),
    "PreimageSet": lambda: PreimageSet(depth=1, points=(0.0, 1.0), largest_gap=1.0),
    "DensityReport": lambda: DensityReport(largest_gap=0.5, count=3, dense_estimate=False),
    "FixedPointWord": lambda: FixedPointWord(8, 5),
    "CrosscheckReport": lambda: CrosscheckReport(0.0, 0.5, 1, 10, 2),
    "ConjugacyReport": lambda: ConjugacyReport(grid=(0.0,), residuals=(0.0,), max_residual=0.0,
                                               argmax=0.0),
    "Conflict": lambda: Conflict(0.1, 0.2, 0.3),
    "RunConfig": lambda: RunConfig(command="iterate", params={"n": 1}),
    "_Cap": lambda: _Cap(10, "--size"),
    "Result": lambda: Result(0, {"x": 1.0}, ("x",)),
}


# recorded from the dataclass versions of these classes
REPRS = {
    "Interval": "Interval(lo=0.0, hi=1.0, lo_closed=True, hi_closed=False)",
    "Orbit": "Orbit(values=(0.25, 0.75))",
    "Logistic": "Logistic()",
    "Tent": "Tent()",
    "HalfTent": "HalfTent()",
    "Quadratic": "Quadratic()",
    "Doubling": "Doubling()",
    "Cosine": "Cosine()",
    "SineSquared": "SineSquared()",
    "Hyperbola": "Hyperbola(e=2.0, a=1.0)",
    "Verhulst": "Verhulst(m=4.0, n=4.0)",
    "PiecewiseLinear": "PiecewiseLinear(knots=((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))",
    "Unimodal": ("Unimodal(v=0.5, left=PiecewiseLinear(knots=((0.0, 0.0), (1.0, 2.0))), "
                 "right=PiecewiseLinear(knots=((0.0, 2.0), (1.0, 0.0))))"),
    "Conjugated": "Conjugated(base=Logistic(), change=UlamArcsin())",
    "UlamArcsin": "UlamArcsin()",
    "AlphaArcsin": "AlphaArcsin()",
    "Affine": "Affine(p=2.0, q=1.0)",
    "Power": "Power(gamma=0.5)",
    "Mobius": "Mobius(a=0.5, b=0.25)",
    "PiecewiseLinearHomeo": "PiecewiseLinearHomeo(knots=((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))",
    "Reflect": "Reflect()",
    "CompositionH": "CompositionH(outer=Affine(p=2.0, q=0.0), inner=AlphaArcsin())",
    "CobwebPath": "CobwebPath(values=(0.5, 1.0), converged=False, limit=None)",
    "PreimageSet": "PreimageSet(depth=1, points=(0.0, 1.0), largest_gap=1.0, levels=())",
    "DensityReport": "DensityReport(largest_gap=0.5, count=3, dense_estimate=False)",
    "FixedPointWord": "FixedPointWord(bits=8, value=5)",
    "CrosscheckReport": ("CrosscheckReport(max_deviation=0.0, argmax_x=0.5, argmax_n=1, "
                         "samples=10, n_max=2)"),
    "ConjugacyReport": ("ConjugacyReport(grid=(0.0,), residuals=(0.0,), max_residual=0.0, "
                        "argmax=0.0)"),
    "Conflict": "Conflict(left=0.1, right=0.2, image_gap=0.3, step=None)",
    "RunConfig": ("RunConfig(command='iterate', params={'n': 1}, fmt='json', output=None, "
                  "timing=False)"),
    "_Cap": "_Cap(limit=10, size='--size', value_of=None)",
    "Result": ("Result(code=0, fields={'x': 1.0}, csv_header=('x',), csv_rows=None, inputs=None, "
               "figure=None)"),
}

# classes whose fields hold the same values, which must still differ
_LOOKALIKES = [
    (Tent(), HalfTent()), (Logistic(), Tent()), (UlamArcsin(), Reflect()),
    (Logistic(), UlamArcsin()), (Affine(2.0, 1.0), Verhulst(2.0, 1.0)),
    (Hyperbola(2.0, 1.0), Verhulst(2.0, 1.0)),
    (PiecewiseLinear([(0, 0), (1, 1)]), PiecewiseLinearHomeo([(0, 0), (1, 1)])),
]


def test_every_value_class_is_listed():
    assert set(INSTANCES) == set(REPRS) and len(INSTANCES) == 32


@pytest.mark.parametrize("name", INSTANCES)
def test_repr_equality_and_hash(name):
    a, b = INSTANCES[name](), INSTANCES[name]()
    assert repr(a) == REPRS[name]
    assert a is not b and a == b and not a != b
    assert a != object() and not a == object()
    if name in ("RunConfig", "Result"):  # they hold a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("a, b", _LOOKALIKES, ids=[f"{type(a).__name__}-{type(b).__name__}"
                                                   for a, b in _LOOKALIKES])
def test_equal_fields_of_another_class_differ(a, b):
    assert a != b and b != a and not a == b


@pytest.mark.parametrize("name", INSTANCES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = INSTANCES[name]()
    first = re.match(r"\w+\((\w+)=", REPRS[name])  # its first field, if it has one
    field = first.group(1) if first else "anything"
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == REPRS[name]


# every map and coordinate change whose spec parses (a Unimodal has none)
_SPECCED = [name for name, make in INSTANCES.items()
            if hasattr(make(), "describe") and name != "Unimodal"]


@pytest.mark.parametrize("name", _SPECCED)
def test_describe_round_trips(name):
    value = INSTANCES[name]()
    parse = parse_map_spec if hasattr(value, "_raw") else parse_homeo_spec
    assert parse(value.describe()) == value
    assert parse(value.describe()).describe() == value.describe()


def test_unequal_fields_differ():
    assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
    assert Interval(0.0, 1.0) != Interval(0.0, 1.0, hi_closed=False)
    assert Mobius(0.5, 0.25) != Mobius(0.5, 0.5)
    assert PiecewiseLinear([(0, 0), (1, 1)]) != PiecewiseLinear([(0, 0), (1, 2)])
