"""Coherence/Schmidt rank certification, dephasing-covariant channel synthesis, and cost reports."""

from .bounds import (
    CostReport,
    RankCertificate,
    asymptotic_entanglement_cost,
    binary_entropy,
    cost_report,
    delta_robustness,
    dilution_dimension,
    l1_coherence,
    l1_rank_lower_bound,
    negativity,
    negativity_rank_lower_bound,
    pure_schmidt_rank,
    rank_certificate,
    regularized_cost_bounds,
    schmidt_certificate,
)
from .channels import (
    CovarianceReport,
    CptpReport,
    DioChannel,
    DioInfeasibleError,
    choi_apply,
    covariance_report,
    cptp_report,
    dio_feasible,
    dio_synthesize,
    mc_twirl,
    mcdc_apply,
    sign_flip_check,
)
from .decompositions import (
    EnsembleReport,
    InfeasiblePairEnsembleError,
    PairEnsemble,
    WeightedEnsemble,
    dual_flag_ensemble,
    power_pair_ensemble,
    power_pair_feasible,
    power_pair_members,
    power_pair_witness,
    verify_ensemble,
)
from .kernel import (
    DimensionCapError,
    dephase,
    dim_cap,
    hermiticity_defect,
    partial_transpose,
    spectrum,
    tensor_power,
    trace_norm,
    validate_density_matrix,
    validate_pure_state,
)
from .states import (
    NotMaximallyCorrelatedError,
    fourier_flag_dual,
    fourier_flag_mixture,
    fourier_flag_state,
    max_coherent,
    mc_lift,
    mc_labels,
    mc_lift_vector,
    mc_unlift,
    noisy_max_coherent,
    pair_state,
    pure_coherence_rank,
)

__version__ = "0.1.0"
