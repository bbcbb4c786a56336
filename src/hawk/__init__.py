"""Spatial speculative decoding over raster-order token grids.

Desk-scale implementation of dual-direction (horizontal plus vertical) draft
heads with exact multi-draft verification, vertical predictions computed
from the committed prefix when a pool reads them, vanilla / horizontal-only /
relaxed-acceptance baselines, a brute-force joint-distribution oracle, and a
command line that writes every report.
"""

__version__ = "0.1.0"

from .core import GridSpec, SamplingConfig
from .engine import BatchResult, EngineConfig, decode_batch, decode_image
from .models import fit_tabular_draft_heads, held_out_nll, make_grid_markov_target, save_head_set
from .oracle_metrics import empirical_joint_from_counts, enumerate_joint, joint_tv
