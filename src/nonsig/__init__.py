"""Boundaries of the 2-input/2-outcome non-signaling set in the plane spanned
by the relabeling-maximized CHSH score S and the mutual information I."""

__version__ = "0.1.0"

from .behavior import (
    Behavior,
    BehaviorError,
    BehaviorTag,
    Correlators,
    ValidationError,
    Violation,
    correlators_to_behavior,
    mix,
    named,
    relabelings,
    validate,
    violations,
)
from .curves import CurveId, curve_grid, curve_value, curve_witness, witness_vectors
from .functionals import (
    FunctionalPoint,
    chsh_linear,
    correlation_space_info,
    evaluate,
    g,
    mutual_information,
    s_max,
)
from .geometry import (
    AnalysisError,
    InflectionEstimate,
    concavity_profile,
    locate_inflection,
    orientation_det,
    slope_kinks,
    trajectory,
)
from .membership import MembershipReport, is_local, npa1_test, qtilde_test, report
from .quantum import QuantumModel, QubitMeasurement, bell_behavior, model_to_behavior, sample
from .boundary import (
    BoundaryCurve,
    FeasibleSet,
    ScanConfig,
    ScanMode,
    ScanPoint,
    optimize_at_s,
    scan,
    vertical_fill_check,
)
from .slice import info_gradient

__all__ = [
    "Behavior",
    "BehaviorError",
    "BehaviorTag",
    "BoundaryCurve",
    "Correlators",
    "CurveId",
    "FeasibleSet",
    "FunctionalPoint",
    "InflectionEstimate",
    "MembershipReport",
    "AnalysisError",
    "QuantumModel",
    "QubitMeasurement",
    "ScanConfig",
    "ScanMode",
    "ScanPoint",
    "ValidationError",
    "Violation",
    "bell_behavior",
    "chsh_linear",
    "concavity_profile",
    "correlation_space_info",
    "correlators_to_behavior",
    "curve_grid",
    "curve_value",
    "curve_witness",
    "evaluate",
    "g",
    "info_gradient",
    "is_local",
    "locate_inflection",
    "mix",
    "model_to_behavior",
    "mutual_information",
    "named",
    "npa1_test",
    "optimize_at_s",
    "orientation_det",
    "qtilde_test",
    "relabelings",
    "report",
    "s_max",
    "sample",
    "scan",
    "slope_kinks",
    "trajectory",
    "validate",
    "vertical_fill_check",
    "violations",
    "witness_vectors",
]
