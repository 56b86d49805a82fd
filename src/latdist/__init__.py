"""Latency-distortion planning for classifier probability vectors on noisy channels.

The package quantizes probability vectors (uniform, lattice, and sparse
lattice coders), prices each coder in bits for a given source distortion,
models finite-blocklength decoding errors on AWGN and Rayleigh fading
links, and solves for the transmission blocklength that meets an
end-to-end total variation budget at minimum latency. A Monte Carlo
simulator validates the distortion bound, and an ingest layer derives the
sparse retention size from real classifier outputs.
"""

from .budget import BudgetFn, Scheme, budget_lq, budget_slq
from .channel import (
    ChannelFamily,
    ChannelSpec,
    awgn_coeffs,
    db_to_linear,
    epsilon_awgn,
    epsilon_fading_csi,
    epsilon_fading_nocsi,
    fading_csi_coeffs,
    fading_nocsi_coeffs,
    linear_to_db,
    q_func,
    q_inv,
)
from .codec import (
    LatticePoint,
    LexIndex,
    PositionSet,
    composition_count_bits,
    rank_composition,
    rank_subset,
    subset_count_bits,
    unrank_composition,
    unrank_subset,
)
from .ingest import (
    VectorDataset,
    load_dataset,
    recommend_ktop,
    top_mass_curve,
)
from .optimizer import (
    TradeoffCurve,
    TradeoffPoint,
    lower_convex_hull,
    solve_blocklength,
    sweep_beta_s,
    sweep_beta_t,
)
from .prob import ProbVector, tv_distance
from .quantizers import (
    SLQEncoding,
    UQEncoding,
    lq_decode,
    lq_encode,
    slq_decode,
    slq_encode,
    uq_decode,
    uq_encode,
)
from .simulator import (
    ErrorModel,
    SimConfig,
    SimReport,
    random_simplex,
    random_sparse_simplex,
    simulate_end_to_end,
)

__version__ = "0.1.0"
