"""intervaldyn: numerical toolkit for one-dimensional interval-map dynamics.

Core capabilities: evaluatable map descriptors with iteration and
orbit generation; closed-form n-th iterates with brute-force
cross-checks; construction and verification of topological
(semi-)conjugacies, centered on (2/pi) arcsin sqrt(x) between the
logistic and tent maps; cobweb diagrams; zero-preimage density
estimation; and the chaotic random-number pipeline together with its
finite-precision collapse.
"""

from .analysis import (CobwebPath, DensityReport, IdempotentReport, PreimageSet,
                       check_idempotent_structure, cobweb_path, density_report,
                       zero_preimage_set)
from .chaos_rng import (DEFAULT_SEED, DistributionSpec, FixedPointWord,
                        FixedPrecisionReport, arcsine_cdf, doubling_collapse,
                        fixed_precision_logistic, histogram, ks_distance,
                        logistic_sequence, square_distribution, transform_to,
                        uniform_distribution, uniformize)
from .closed_form import (CrosscheckReport, boole_iterate, crosscheck_closed_form,
                          fractional_iterate_hyperbola, fractional_iterate_quadratic,
                          herschel_constant, herschel_iterate, hyperbola_iterate)
from .conjugacy import (Conflict, ConjugacyReport, conjugate_map,
                        herschel_relation_residual, mobius_involution,
                        orbit_consistency, periodicity_order,
                        propagate_partial_conjugacy, verify_conjugacy,
                        verify_semiconjugacy)
from .errors import (DomainError, EmptySampleError, ImaginaryResidueError,
                     IntervalDynError, ParameterError, RangeError, UsageError)
from .homeos import (Affine, AlphaArcsin, CompositionH, Homeomorphism, Mobius,
                     PiecewiseLinearHomeo, Power, Reflect, UlamArcsin, apply_homeo,
                     invert_homeo)
from .interval import Interval
from .maps import (Conjugated, Cosine, Doubling, HalfTent, Hyperbola,
                   Logistic, MapDescriptor, Orbit, PiecewiseLinear, Quadratic,
                   SineSquared, Tent, Unimodal, Verhulst, affine_map, eval_map,
                   fixed_points, identity_map, iterate, orbit, reflect_map,
                   sensitivity_report)

__version__ = "0.1.0"
