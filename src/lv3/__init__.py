"""Global-dynamics toolkit for a four-parameter family of three-species
Lotka-Volterra flows on the unit simplex.

The package classifies parameter vectors into sign regimes, enumerates the
closed-form equilibrium sets, certifies product-form first integrals through
the closed-form cofactors of four invariant planes, integrates the
three-species flow with adaptive embedded Runge-Kutta pairs, detects
periodic orbits through a return map, classifies
limit sets against the distinguished boundary segments, and drives all of it
from the ``lv3`` command line tool with reproducible, seed-determined output.
"""

from .params import (
    ParamVector,
    Regime,
    ZeroParameter,
    classify,
    discriminant,
)
from .equilibria import (
    Segment,
    SimplexPoint,
    SimplexViolation,
    SpectrumReport,
    edge_spectrum_py,
    interior_segment_R,
    interior_spectrum,
    limit_endpoints,
    limit_segments,
    vector_field,
)
from .darboux import (
    FirstIntegralSpec,
    certify_named_integrals,
    log_integral_value,
    named_integral_specs,
    solve_darboux,
    surface_cofactors,
)
from .flow import (
    SectionSpec,
    StepSizeUnderflow,
    Trajectory,
    integrate,
)
from .analysis import (
    HeteroclinicMatch,
    LimitSetReport,
    PeriodicOrbit,
    alpha_limit,
    bifurcation_scan,
    detect_periodic,
    heteroclinic_match,
    omega_limit,
    period_profile,
    verify_theorem_a,
    verify_theorem_b,
)

__version__ = "0.1.0"

__all__ = [
    "ParamVector",
    "Regime",
    "ZeroParameter",
    "classify",
    "discriminant",
    "Segment",
    "SimplexPoint",
    "SimplexViolation",
    "SpectrumReport",
    "edge_spectrum_py",
    "interior_segment_R",
    "interior_spectrum",
    "limit_endpoints",
    "limit_segments",
    "vector_field",
    "FirstIntegralSpec",
    "certify_named_integrals",
    "log_integral_value",
    "named_integral_specs",
    "solve_darboux",
    "surface_cofactors",
    "SectionSpec",
    "StepSizeUnderflow",
    "Trajectory",
    "integrate",
    "HeteroclinicMatch",
    "LimitSetReport",
    "PeriodicOrbit",
    "alpha_limit",
    "bifurcation_scan",
    "detect_periodic",
    "heteroclinic_match",
    "omega_limit",
    "period_profile",
    "verify_theorem_a",
    "verify_theorem_b",
]
