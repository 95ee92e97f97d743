"""What a cold process imports. The package alone loads none of its
modules, and a subcommand loads only the modules it runs. Each check
reads the module names that -X importtime lists in a subprocess, never
its timings, so that it cannot flake on a busy machine."""

import importlib
import os
import subprocess
import sys

import pytest

import intervaldyn

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the public names, by module, that the package serves on first access
EXPORTS = {
    "analysis": ["CobwebPath", "DensityReport", "PreimageSet", "cobweb_path", "density_report",
                 "zero_preimage_set"],
    "chaos_rng": ["DEFAULT_SEED", "FixedPointWord", "STAGES", "arcsine_cdf", "doubling_collapse",
                  "ks_distance", "stage_values"],
    "closed_form": ["CrosscheckReport", "boole_iterate", "crosscheck_closed_form",
                    "fractional_iterate_hyperbola", "fractional_iterate_quadratic",
                    "herschel_iterate", "hyperbola_iterate"],
    "conjugacy": ["Conflict", "ConjugacyReport", "herschel_relation_residual",
                  "orbit_consistency", "periodicity_order", "propagate_partial_conjugacy",
                  "verify_conjugacy", "verify_semiconjugacy"],
    "errors": ["DomainError", "EmptySampleError", "ImaginaryResidueError", "IntervalDynError",
               "ParameterError", "RangeError", "UsageError"],
    "homeos": ["Affine", "AlphaArcsin", "CompositionH", "Homeomorphism", "Mobius",
               "PiecewiseLinearHomeo", "Power", "Reflect", "UlamArcsin", "apply_homeo",
               "invert_homeo"],
    "interval": ["Interval"],
    "maps": ["Conjugated", "Cosine", "Doubling", "HalfTent", "Hyperbola", "Logistic",
             "MapDescriptor", "Orbit", "PiecewiseLinear", "Quadratic", "SineSquared", "Tent",
             "Unimodal", "Verhulst", "eval_map", "fixed_points", "iterate", "orbit",
             "sensitivity_report"],
}


def imported(*args: str) -> set[str]:
    """The modules a fresh interpreter run with these arguments imports."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    # lines "import time: <self us> | <cumulative us> | <module>", after a header
    rows = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {row[2].strip() for row in rows if len(row) == 3 and row[1].strip().isdigit()}


def package_modules(modules: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in modules if name.startswith("intervaldyn.")}


def test_the_package_alone_imports_none_of_its_modules():
    modules = imported("-c", "import intervaldyn")
    assert "intervaldyn" in modules and package_modules(modules) == set()


def test_the_cli_module_alone_imports_no_library_module():
    modules = imported("-c", "import intervaldyn.cli")
    assert package_modules(modules) == {"cli", "errors", "frozen"}
    assert not modules & {"dataclasses", "array"}


# unused names the package modules a subcommand does not load and, as
# "array", the standard module, which only a held orbit or sample needs
@pytest.mark.parametrize("argv, unused", [
    (["rng", "collapse", "--bits", "4", "--value", "3"],
     {"conjugacy", "analysis", "closed_form", "render", "array"}),
    (["iterate", "--map", "logistic", "--x0", "0.3", "--n", "1"],
     {"analysis", "chaos_rng", "closed_form", "conjugacy", "render", "array"}),
    # render is imported only when the svg document is asked for
    (["cobweb", "--map", "logistic", "--x0", "0.3", "--steps", "3", "--format", "json"],
     {"chaos_rng", "closed_form", "conjugacy", "render"}),
], ids=["rng-collapse", "iterate", "cobweb-json"])
def test_a_subcommand_imports_only_what_it_runs(argv, unused):
    modules = imported("-m", "intervaldyn", *argv)
    assert "cli" in package_modules(modules)
    assert not (package_modules(modules) | modules) & unused
    assert "dataclasses" not in modules


def test_an_rng_sample_imports_array():
    # the KS sort holds its sample in array('d') chunks; rng generate
    # writes the sample as it is drawn and holds none of it
    modules = imported("-m", "intervaldyn", "rng", "ks", "--n", "3", "--seed", "0.3",
                       "--cdf", "arcsine")
    assert "array" in modules
    modules = imported("-m", "intervaldyn", "rng", "generate", "--n", "3", "--seed", "0.3")
    assert "chaos_rng" in package_modules(modules) and "array" not in modules


def test_a_residual_check_imports_array():
    # its grid and residual profile are each held as one array('d')
    modules = imported("-m", "intervaldyn", "conjugacy", "verify", "--f", "logistic", "--g",
                       "tent", "--h", "ulam", "--samples", "10")
    assert "cli" in package_modules(modules)
    assert not package_modules(modules) & {"analysis", "chaos_rng", "render"}
    assert "dataclasses" not in modules and "array" in modules


def test_the_package_serves_its_public_names():
    assert intervaldyn.__all__ == [name for names in EXPORTS.values() for name in names]
    namespace = {}
    exec("from intervaldyn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(intervaldyn.__all__)
    for module, names in EXPORTS.items():
        for name in names:
            source = importlib.import_module(f"intervaldyn.{module}")
            assert namespace[name] is getattr(source, name) is getattr(intervaldyn, name)
    assert set(intervaldyn.__all__) <= set(dir(intervaldyn))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        intervaldyn.no_such_name
    assert not hasattr(intervaldyn, "_bisect_monotone")
