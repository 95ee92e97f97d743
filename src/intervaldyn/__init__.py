"""intervaldyn: numerical toolkit for one-dimensional interval-map dynamics.

Core capabilities: evaluatable map descriptors with iteration and
orbit generation; closed-form n-th iterates with brute-force
cross-checks; construction and verification of topological
(semi-)conjugacies, centered on (2/pi) arcsin sqrt(x) between the
logistic and tent maps; cobweb diagrams; zero-preimage density
estimation; and the chaotic random-number pipeline together with its
finite-precision collapse.

The public names below are served from their modules on first access
(PEP 562): importing the package loads none of its modules, and a CLI
process loads only the modules its subcommand runs.
"""

import importlib

# module -> the public names the package serves from it
_EXPORTS = {
    "analysis": ("CobwebPath", "DensityReport", "PreimageSet", "cobweb_path", "density_report",
                 "zero_preimage_set"),
    "chaos_rng": ("DEFAULT_SEED", "FixedPointWord", "STAGES", "arcsine_cdf", "doubling_collapse",
                  "ks_distance", "stage_values"),
    "closed_form": ("CrosscheckReport", "boole_iterate", "crosscheck_closed_form",
                    "fractional_iterate_hyperbola", "fractional_iterate_quadratic",
                    "herschel_iterate", "hyperbola_iterate"),
    "conjugacy": ("Conflict", "ConjugacyReport", "herschel_relation_residual",
                  "orbit_consistency", "periodicity_order", "propagate_partial_conjugacy",
                  "verify_conjugacy", "verify_semiconjugacy"),
    "errors": ("DomainError", "EmptySampleError", "ImaginaryResidueError", "IntervalDynError",
               "ParameterError", "RangeError", "UsageError"),
    "homeos": ("Affine", "AlphaArcsin", "CompositionH", "Homeomorphism", "Mobius",
               "PiecewiseLinearHomeo", "Power", "Reflect", "UlamArcsin", "apply_homeo",
               "invert_homeo"),
    "interval": ("Interval",),
    "maps": ("Conjugated", "Cosine", "Doubling", "HalfTent", "Hyperbola", "Logistic",
             "MapDescriptor", "Orbit", "PiecewiseLinear", "Quadratic", "SineSquared", "Tent",
             "Unimodal", "Verhulst", "eval_map", "fixed_points", "iterate", "orbit",
             "sensitivity_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later accesses skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
