"""Spans and counters recorded from outside intervaldyn, around calls into
each module's public functions.

The traced run replaces those functions in every intervaldyn module
namespace that holds them (``from .maps import iterate`` binds a second
name), records spans in memory and restores the originals afterwards.
High-frequency calls (``Interval.snap``, ``eval_map``, ``iterate``,
``apply_homeo``, ``invert_homeo``, ``_dedup_sorted`` and the function
bisection evaluates) are counted only, so their time stays inside the
span that called them.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# (module, attribute, span name): each gets a span at every call
SPANNED = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_args", "cli.parse_args"),
    ("cli", "run", "cli.run"),
    ("cli", "to_json", "cli.to_json"),
    ("cli", "to_csv", "cli.to_csv"),
    ("render", "cobweb_svg", "render.cobweb_svg"),
    ("maps", "orbit", "maps.orbit"),
    ("analysis", "cobweb_path", "analysis.cobweb_path"),
    ("analysis", "zero_preimage_set", "analysis.zero_preimage_set"),
    ("chaos_rng", "uniformize", "chaos_rng.uniformize"),
    ("chaos_rng", "transform_to", "chaos_rng.transform_to"),
    ("chaos_rng", "ks_distance", "chaos_rng.ks_distance"),
    ("closed_form", "crosscheck_closed_form", "closed_form.crosscheck"),
    ("conjugacy", "verify_conjugacy", "conjugacy.verify_conjugacy"),
    ("conjugacy", "verify_semiconjugacy", "conjugacy.verify_semiconjugacy"),
    ("conjugacy", "periodicity_order", "conjugacy.periodicity_order"),
    ("conjugacy", "propagate_partial_conjugacy", "conjugacy.propagate_partial_conjugacy"),
    ("homeos", "_bisect_monotone", "homeos.bisect"),
]

# (module, attribute, counter name): each call is counted, no span
COUNTED = [
    ("maps", "eval_map", "maps.eval_map.calls"),
    ("homeos", "apply_homeo", "homeos.apply_homeo.calls"),
    ("homeos", "invert_homeo", "homeos.invert_homeo.calls"),
    # runs once for every preimage level computed
    ("analysis", "_dedup_sorted", "analysis.preimage.levels"),
]

PACKAGE = "intervaldyn"


class Tracer:
    """Spans (name, start, end, parent, invocation) kept in flat arrays,
    plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation_of = array("i")
        self.invocation = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that every call records a span."""
        nid = self._id(name)
        clock = time.perf_counter
        names, start, end, parent, invs, stack = (
            self.name, self.start, self.end, self.parent, self.invocation_of, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            invs.append(self.invocation)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct child
        spans cover (calls are single-threaded, so children nest)."""
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        totals = {name: 0.0 for name in self.names}
        for i in range(n):
            totals[self.names[self.name[i]]] += duration[i] - covered[i]
        return totals

    def write(self, handle, pass_index: int) -> None:
        for i in range(len(self.name)):
            handle.write(f"{pass_index},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.invocation_of[i]}\n")


class Patches:
    """Installs wrappers in every intervaldyn namespace that binds a
    function, and restores the originals on uninstall."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def replace(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        wrapper = make(original)
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def replace_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of the intervaldyn modules already imported."""
    patches = Patches()
    counts = tracer.counts

    def module(short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def lookup(short: str, attr: str, label: str):
        fn = getattr(module(short), attr, None)
        if fn is None:
            patches.missing.append(label)
        return fn

    # bisection: count calls, evaluations of the function it receives,
    # calls that ran every iteration the loop allows, and calls that
    # returned without any evaluation hitting the target exactly
    homeos = module("homeos")
    cap = getattr(homeos, "_BISECT_MAX_ITER", 100)

    def make_bisect(original):
        def counted_bisect(f, target, *args, **kwargs):
            evals, hit = 0, False

            def counted_f(x):
                nonlocal evals, hit
                evals += 1
                y = f(x)
                hit = hit or y == target
                return y

            try:
                result = original(counted_f, target, *args, **kwargs)
            finally:
                counts["homeos.bisect.calls"] += 1
                counts["homeos.bisect.evals"] += evals
            if evals - 2 >= cap:  # two endpoint evaluations, then the loop
                counts["homeos.bisect.cap_hits"] += 1
            elif not hit:
                counts["homeos.bisect.tol_exits"] += 1
            return result
        return tracer.spanned("homeos.bisect", counted_bisect)

    for short, attr, name in SPANNED:
        fn = lookup(short, attr, name)
        if fn is None:
            continue
        if name == "homeos.bisect":
            patches.replace(fn, make_bisect)
        elif name == "closed_form.crosscheck":
            patches.replace(fn, lambda o: _steps_span(tracer, o, inspect.signature(o)))
        elif name == "analysis.zero_preimage_set":
            patches.replace(fn, lambda o: tracer.spanned(
                name, _counted(counts, "analysis.zero_preimage_set.calls", o)))
        elif name == "cli.to_json":  # calls itself through its module global
            patches.replace(fn, lambda o, short=short, attr=attr:
                            _outermost_span(tracer, "cli.to_json", o, module(short), attr))
        else:
            patches.replace(fn, lambda o, name=name: tracer.spanned(name, o))

    for short, attr, name in COUNTED:
        fn = lookup(short, attr, name)
        if fn is not None:
            patches.replace(fn, lambda o, name=name: _counted(counts, name, o))

    iterate = lookup("maps", "iterate", "maps.iterate")
    if iterate is not None:
        def make_iterate(original):
            def counted_iterate(m, x, n):
                counts["maps.iterate.calls"] += 1
                counts["maps.iterate.steps"] += n
                return original(m, x, n)
            return counted_iterate
        patches.replace(iterate, make_iterate)

    interval = module("interval")
    if interval is not None:
        snap = interval.Interval.snap

        def counted_snap(self, x):
            counts["interval.snap.calls"] += 1
            y = snap(self, x)
            if y != x:
                counts["interval.snap.moved"] += 1
            return y
        patches.replace_method(interval.Interval, "snap", counted_snap)
    else:
        patches.missing.append("interval.snap")
    return patches


def _counted(counts: Counter, name: str, original: Callable) -> Callable:
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return counted


def _steps_span(tracer: Tracer, original: Callable, signature: inspect.Signature) -> Callable:
    """Span for the closed-form crosscheck that also records the map steps
    it walked against its samples * n_max grid. A step is one domain snap
    (``iterate`` snaps once per step plus once on entry, ``eval_map`` once
    per call), so the count holds however the steps are walked."""
    counts = tracer.counts

    def measured(*args, **kwargs):
        snaps, iterates = counts["interval.snap.calls"], counts["maps.iterate.calls"]
        try:
            return original(*args, **kwargs)
        finally:
            bound = signature.bind(*args, **kwargs).arguments
            counts["closed_form.crosscheck.steps"] += (
                counts["interval.snap.calls"] - snaps
                - (counts["maps.iterate.calls"] - iterates))
            counts["closed_form.crosscheck.grid_steps"] += (
                int(bound["samples"]) * int(bound["n_max"]))

    return tracer.spanned("closed_form.crosscheck", measured)


def _outermost_span(tracer: Tracer, name: str, original: Callable, module, attr: str) -> Callable:
    """Span only the outermost call of a self-recursive function: during
    the call its module global points at the original again."""
    spanned = tracer.spanned(name, original)

    def outermost(*args, **kwargs):
        wrapper = getattr(module, attr)
        setattr(module, attr, original)
        try:
            return spanned(*args, **kwargs)
        finally:
            setattr(module, attr, wrapper)

    return outermost
