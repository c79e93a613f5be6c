"""Numerical library for the generalized quadratic 8-to-5 transformation.

Exposes the Dirac-matrix layer, the forward map with its fiber angles and
closed-form section, the rotor-operator finite-difference engine, the
monopole-type gauge potentials (numeric pipeline and closed forms), the
spin-J angle-separation machinery, and a deterministic verification suite
with a CLI (``hurwitz verify | fields | separate``).
"""

from .clifford import (
    build_gamma,
    clifford_residual,
    fierz_residual,
    gamma_tilde_commutation_table,
)
from .errors import (
    ConfigInvalid,
    DegenerateFiber,
    HurwitzError,
    IllConditionedFrame,
    PolarSingularity,
    SectionFailed,
    SingularAxis,
    SingularFiber,
)
from .gauge import (
    a_field_closed,
    a_field_numeric,
    a_tilde,
    b_functions,
)
from .harness import (
    CheckResult,
    Report,
    SuiteConfig,
    fields_cmd,
    run_suite,
    separate_cmd,
)
from .opcalc import (
    apply_euler_op,
    casimir_residual,
    commutator_residuals,
    identity_residual,
    oscillator_apply,
)
from .separation import (
    axis_solution,
    build_h,
    consistency_residual,
    det_bisection_roots,
    effective_terms,
    separation_roots,
    wigner,
    wigner_d,
)
from .transform import (
    CASE_A,
    CASE_B,
    OCTET_CONVENTION,
    AngleCase,
    ConventionMap,
    extra_angles,
    fiber_section,
    forward,
    forward_octet,
)

__version__ = "0.1.0"
