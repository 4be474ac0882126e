"""Higher-order PCA for third-order tensors.

Classic CP/Tucker decompositions, a greedy rank-one power scheme with
deflation, sparse variants by soft-thresholding, structured variants
under quadratic norms, multi-way functional PCA, variance-explained
evaluation, BIC penalty selection, and a simulation harness.
"""

from .decompose import (
    CpModel,
    RankOneFit,
    SolverConfig,
    TuckerModel,
    cp_als,
    hooi,
    hosvd,
    tpa,
    tpa_rank_one,
)
from .evaluate import (
    BicSelection,
    RecoveryMetrics,
    RocPoint,
    VarianceReport,
    bic_select,
    default_lambda_grid,
    roc_dominance_fraction,
    roc_sweep,
    signal_mse,
    support_metrics,
    variance_explained,
)
from .fileio import (
    load_cp_model,
    load_model,
    load_tucker_model,
    read_matrix_csv,
    read_tensor3,
    save_cp_model,
    save_model,
    save_tucker_model,
    write_matrix_csv,
    write_tensor3,
)
from .generalized import (
    FpcaFit,
    PenaltyFn,
    QuadOperators,
    SmootherSet,
    difference_penalty,
    fpca,
    fpca_half_smoothing,
    fpca_objective,
    fpca_rank_one,
    gcp,
    gcp_rank_one,
    general_cp_tpa,
    general_cp_tpa_rank_one,
    group_lasso_penalty,
    l1_penalty,
    nonneg_l1_penalty,
    positive_threshold,
    qnorm_lasso_solve,
    second_diff_penalty,
    sparse_gcp,
    sparse_gcp_rank_one,
)
from .simulate import (
    SimScenarioSpec,
    SimTruth,
    run_roc_experiment,
    run_table_experiment,
    simulate,
)
from .sparse import (
    ModePenalty,
    PenaltySpec,
    SparseDiagnostics,
    soft_threshold,
    sparse_cp_als,
    sparse_cp_tpa,
    sparse_cp_tpa_rank_one,
    sparse_hooi,
    sparse_hosvd,
    sparse_pca_rank_one,
)
from .tensor3 import (
    contract_vec,
    fold,
    frob_norm,
    khatri_rao,
    matricize,
    mode_mult,
    outer3,
    qnorm3,
    tensor3,
)

__version__ = "0.1.0"
