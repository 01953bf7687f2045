"""Entanglement cost of rank-1 POVMs via Naimark extensions.

A POVM with rank-1 elements |k_mu><k_mu| is realized by extending the row
matrix of the k_mu to an orthonormal basis of a system-ancilla space and
measuring in that basis. Each extension carries an entanglement price:
the mean (base-2) entanglement entropy of the basis states, weighted by
the outcome distribution on the maximally mixed input. This package
minimizes that price over extensions, evaluates the closed-form upper
bounds, certifies zero-cost POVMs, and treats the trine measurement
analytically.
"""

from .linalg import binary_entropy, gram_schmidt_complete
from .povm import (
    Ensemble,
    Povm,
    ValidationReport,
    canonical_distribution,
    convex_combine,
    merge_parallel,
    mutual_information,
    post_process,
    random_haar,
    refine_to_rank1,
    tensor,
    trine,
    trine_source,
    validate,
)
from .naimark import (
    ExtensionCostBreakdown,
    ExtensionReport,
    NaimarkExtension,
    compress_ancilla,
    construct_completion,
    construct_default,
    extension_cost,
    marginal_povms,
    prop5_extension,
    rotate_ancilla,
    validate_extension,
)
from .optimize import (
    CostReport,
    OptimizerConfig,
    RestartRecord,
    minimize,
    minimize_many,
    minimize_over_e,
    normalized_cost,
)
from .bounds import (
    BoundReport,
    ZeroCostCertificate,
    asymptotic_bound_curve,
    best_bound,
    bound_dimension,
    bound_element_count,
    bound_prop5,
    zero_cost_decide_d2,
    zero_cost_necessary,
)
from .trine_analytic import (
    ConcavityReport,
    DerivativeScan,
    MixingScan,
    TrineCurve,
    concavity_check,
    derivative_sign_scan,
    f_curve,
    mixed_ancilla_E,
    mixing_reduction_scan,
    trine_E_theta,
    trine_cost_exact,
    trine_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConcavityReport",
    "CostReport",
    "DerivativeScan",
    "Ensemble",
    "ExtensionCostBreakdown",
    "ExtensionReport",
    "MixingScan",
    "NaimarkExtension",
    "OptimizerConfig",
    "Povm",
    "RestartRecord",
    "TrineCurve",
    "ValidationReport",
    "ZeroCostCertificate",
    "asymptotic_bound_curve",
    "best_bound",
    "binary_entropy",
    "bound_dimension",
    "bound_element_count",
    "bound_prop5",
    "canonical_distribution",
    "compress_ancilla",
    "concavity_check",
    "construct_completion",
    "construct_default",
    "convex_combine",
    "derivative_sign_scan",
    "extension_cost",
    "f_curve",
    "gram_schmidt_complete",
    "marginal_povms",
    "merge_parallel",
    "minimize",
    "minimize_many",
    "minimize_over_e",
    "mixed_ancilla_E",
    "mixing_reduction_scan",
    "mutual_information",
    "normalized_cost",
    "post_process",
    "prop5_extension",
    "random_haar",
    "refine_to_rank1",
    "rotate_ancilla",
    "tensor",
    "trine",
    "trine_E_theta",
    "trine_cost_exact",
    "trine_curve",
    "trine_source",
    "validate",
    "validate_extension",
    "zero_cost_decide_d2",
    "zero_cost_necessary",
]
