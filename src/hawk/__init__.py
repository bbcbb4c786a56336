"""Spatial speculative decoding over raster-order token grids.

Desk-scale implementation of dual-direction (horizontal plus vertical) draft
heads with exact multi-draft verification, a speculation cache for vertical
predictions, vanilla / horizontal-only / relaxed-acceptance baselines, a
brute-force joint-distribution oracle, and a benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    GridSpec,
    SamplingConfig,
    StateError,
    TokenDistribution,
    apply_sampling_config,
    apply_temperature,
    apply_top_k,
    kl_divergence,
    sample_index,
    total_variation,
)
from .engine import (
    BatchResult,
    CandidateTree,
    DecodingContext,
    EngineConfig,
    SpeculationCache,
    build_candidate_tree,
    build_pool,
    cache_capacity,
    commit_token,
    decode_batch,
    decode_image,
    decode_round,
    export_grid_image,
)
from .models import (
    DraftHead,
    DraftHeadSet,
    ExactDraftHead,
    GridMarkovModel,
    IndependentPositionModel,
    TabularDraftHead,
    TargetModel,
    fit_tabular_draft_heads,
    held_out_nll,
    load_head_set,
    make_exact_heads,
    make_grid_markov_target,
    make_independent_target,
    save_head_set,
)
from .oracle_metrics import (
    JointTable,
    RejectionCurves,
    empirical_joint_from_counts,
    enumerate_joint,
    joint_tv,
    kl_trace,
    modeled_speedup,
    rejection_curve,
    verification_emitted_law,
)
from .verifier import (
    VerificationOutcome,
    acceptance_ratio,
    lantern_acceptance,
    lantern_sequential_verify,
    rejection_mass,
    residual_update,
    sequential_verify,
    token_neighborhoods,
)
