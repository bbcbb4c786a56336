"""Ground-truth machinery and measurement.

Exact joint enumeration over tiny grids is the oracle that the
distribution-preservation tests compare decoded output against. Statistical
thresholds are not hand-picked: the plain ancestral sampler is run at the
same sample size to measure the Monte Carlo noise floor, and exact modes
must land within a small multiple of it.

The report side holds the cost-model speedup, theoretical
rejection-probability curves for dual-direction versus horizontal-only
drafting, the vertical-versus-horizontal KL trace of a decoded grid, and
the CSV writers for the run results
(:class:`~hawk.engine.BatchResult`). Wall clock is reported separately and
never written into the CSV outputs, which must be byte-identical across
reruns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from .core import (
    GridSpec,
    SamplingConfig,
    TokenDistribution,
    apply_sampling_config,
    kl_divergence,
)
from .models import DraftHeadSet, TargetModel
from .rng import stream
from .verifier import rejection_mass, residual_update

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BatchResult, EngineConfig

# Refuse exact enumeration beyond this many grid outcomes.
MAX_ENUMERATION = 10**6


@dataclass(frozen=True)
class JointTable:
    """Probability table over complete token grids (raster-order tuples)."""

    grid: GridSpec
    probs: dict[tuple[int, ...], float]

    def total(self) -> float:
        return float(sum(self.probs.values()))


def enumerate_joint(
    model: TargetModel, grid: GridSpec, transforms: SamplingConfig
) -> JointTable:
    """Exact joint law of the (transformed) target by chaining conditionals.

    Walks the prefix tree depth first, multiplying transformed conditional
    probabilities; zero-probability branches are skipped, so top-k transforms
    shrink the support. Refuses grids with more than ``MAX_ENUMERATION``
    outcomes, and a ``grid`` other than ``model.grid``.
    """
    if grid != model.grid:
        raise ValueError(f"grid {grid} is not the model's grid {model.grid}")
    if grid.vocab_size**grid.size > MAX_ENUMERATION:
        raise ValueError(
            f"enumeration of {grid.vocab_size}**{grid.size} outcomes exceeds bound "
            f"{MAX_ENUMERATION}; use a smaller grid or vocabulary"
        )
    probs: dict[tuple[int, ...], float] = {}
    size = grid.size
    prefix: list[int] = []

    def walk(weight: float) -> None:
        if len(prefix) == size:
            probs[tuple(prefix)] = weight
            return
        dist = apply_sampling_config(model.conditional(prefix), transforms)
        for token, p in enumerate(dist.probs):
            if p > 0.0:
                prefix.append(token)
                walk(weight * float(p))
                prefix.pop()

    walk(1.0)
    return JointTable(grid, probs)


def empirical_joint_from_counts(counts: Counter, grid: GridSpec) -> JointTable:
    """Frequency table over observed grids from their counts; grids never seen count as zero.

    Counters merge associatively and commutatively (``a + b``), so partial
    counts from parallel workers can be combined before the single divide.
    """
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts must be nonempty")
    for key in counts:
        if len(key) != grid.size:
            raise ValueError(f"count key of length {len(key)} does not match grid {grid}")
    return JointTable(grid, {key: value / total for key, value in counts.items()})


def joint_tv(a: JointTable, b: JointTable) -> float:
    """Total variation distance between two joint tables, over the support union."""
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    keys = a.probs.keys() | b.probs.keys()
    return 0.5 * sum(abs(a.probs.get(k, 0.0) - b.probs.get(k, 0.0)) for k in keys)


def modeled_speedup(accept_length: float, draft_overhead_ratio: float) -> float:
    """Cost-model acceleration: accept_length / (1 + overhead ratio).

    The overhead ratio is the relative per-pass cost the draft machinery
    adds; zero overhead makes the speedup equal the accept length, the
    idealized upper bound.
    """
    if accept_length < 1.0:
        raise ValueError(f"accept_length must be >= 1, got {accept_length}")
    if draft_overhead_ratio < 0.0:
        raise ValueError(f"draft_overhead_ratio must be >= 0, got {draft_overhead_ratio}")
    return accept_length / (1.0 + draft_overhead_ratio)


def verification_emitted_law(
    p: TokenDistribution, drafts: Sequence[TokenDistribution]
) -> np.ndarray:
    """Exact law of the token emitted by a sequential verification round.

    Enumerates every sample path analytically: each draft proposes each
    token with its own probability, the proposal is accepted with
    min(1, p_cur/q), and rejection branches recurse with the residual
    distribution. The distribution-preservation theorem says the result
    equals ``p`` entrywise; tests assert exactly that.
    """
    n = len(p)
    law = np.zeros(n)

    def walk(p_cur: TokenDistribution, index: int, weight: float) -> None:
        if weight <= 0.0:
            return
        if index == len(drafts):
            law[:] += weight * p_cur.probs
            return
        q = drafts[index]
        alpha = 0.0
        for token in range(n):
            qt = float(q.probs[token])
            if qt <= 0.0:
                continue
            ratio = min(1.0, p_cur.prob(token) / qt)
            law[token] += weight * qt * ratio
            alpha += qt * ratio
        residual, degenerate = residual_update(p_cur, q)
        if degenerate:
            residual = p_cur
        walk(residual, index + 1, weight * (1.0 - alpha))

    walk(p, 0, 1.0)
    return law


@dataclass
class RejectionCurves:
    """Mean rejection mass by candidate count, for both pool constructions."""

    dual: list[tuple[int, float]]
    horizontal_only: list[tuple[int, float]]


def _engine_drafts(
    heads: DraftHeadSet, config: "EngineConfig", tokens: Sequence[int], t: int, vertical_depth: int
) -> tuple[TokenDistribution, list[TokenDistribution]]:
    """The drafts the engine holds for position t when decoding ``tokens``.

    The horizontal draft is the depth-1 head on ``tokens[:t]``. The depth-d
    vertical draft was cached when the position d rows above committed, so
    it is the depth-d head on ``tokens[:t - d * width + 1]``; one is returned
    per depth up to ``vertical_depth`` and the row of t. Both carry the
    transform, as :meth:`~hawk.engine.DecodingContext.draft_dist` applies it.
    """
    width, transform = heads.width, config.transform
    horizontal = apply_sampling_config(heads.horizontal[0].predict(tokens[:t]), transform)
    verticals = [
        apply_sampling_config(heads.vertical[d - 1].predict(tokens[: t - d * width + 1]), transform)
        for d in range(1, min(t // width, vertical_depth) + 1)
    ]
    return horizontal, verticals


def require_two_rows(grid: GridSpec) -> None:
    """Rejection curves take their positions from the second row on."""
    if grid.height < 2:
        raise ValueError(f"rejection curves need a grid of at least two rows, got {grid.height}")


def rejection_curve(
    model: TargetModel,
    heads: DraftHeadSet,
    config: "EngineConfig",
    position_count: int,
    m_max: int,
    seed: int,
) -> RejectionCurves:
    """Theoretical rejection probability versus candidate count.

    Positions are taken from ancestral samples of the target, skipping the
    first row (no vertical predictions exist there). At each position the
    dual chain adds one candidate distribution per increment, cycling
    through the available vertical depths and then the horizontal head; the
    horizontal-only chain repeats the depth-1 horizontal distribution. The
    value at m is the chance that all m candidates are rejected, averaged
    over positions. The drafts are the ones the engine would hold there
    (see :func:`_engine_drafts`).
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if position_count < 1:
        raise ValueError(f"position_count must be >= 1, got {position_count}")
    if config.vertical_depth < 1:
        raise ValueError(f"rejection curves need vertical_depth >= 1, got {config.vertical_depth}")
    grid = model.grid
    require_two_rows(grid)
    gen = stream(seed, "rejection-curve")
    dual_sums = np.zeros(m_max)
    horiz_sums = np.zeros(m_max)
    # Each grid gives size - width positions, so these are the grids a
    # draw-until-enough loop would take.
    per_grid = grid.size - grid.width
    samples = [tuple(s) for s in model.sample_grid(gen, -(-position_count // per_grid)).tolist()]
    for n in range(position_count):
        sample, t = samples[n // per_grid], grid.width + n % per_grid
        target = apply_sampling_config(model.conditional(sample[:t]), config.transform)
        horizontal, verticals = _engine_drafts(heads, config, sample, t, config.vertical_depth)
        cycle = verticals + [horizontal]
        dual_sums += rejection_mass(target, [cycle[i % len(cycle)] for i in range(m_max)])
        horiz_sums += rejection_mass(target, [horizontal] * m_max)
    return RejectionCurves(
        dual=[(m, float(dual_sums[m - 1] / position_count)) for m in range(1, m_max + 1)],
        horizontal_only=[
            (m, float(horiz_sums[m - 1] / position_count)) for m in range(1, m_max + 1)
        ],
    )


def kl_trace(
    heads: DraftHeadSet, config: "EngineConfig", tokens: Union[np.ndarray, Sequence[int]]
) -> list[tuple[int, float]]:
    """KL(depth-1 vertical draft || horizontal draft) per position of a decoded grid.

    The drafts are the ones the engine held when each position committed
    (see :func:`_engine_drafts`). Every position from the second row on has
    a depth-1 vertical entry then, so the trace covers positions
    ``width .. size - 1`` in raster order.
    """
    if heads.vertical_depth < 1:
        raise ValueError("a KL trace needs at least one vertical head")
    flat = np.asarray(tokens).reshape(-1).tolist()
    out = []
    for t in range(heads.width, len(flat)):
        horizontal, (vertical,) = _engine_drafts(heads, config, flat, t, 1)
        out.append((t, kl_divergence(vertical, horizontal)))
    return out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------
#
# Floats are written with repr so outputs are byte-stable across runs and
# platforms. Wall clock is deliberately not a column.

METRICS_COLUMNS = (
    "mode",
    "rounds",
    "committed",
    "accept_length",
    "modeled_speedup",
    "depth_accept_rates",
)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _rates_cell(rates: dict[int, float]) -> str:
    return "|".join(f"{d}:{rates[d]!r}" for d in sorted(rates))


def write_metrics_csv(path: Union[str, Path], results: Sequence["BatchResult"]) -> None:
    """One row per run result, fixed column order (``METRICS_COLUMNS``)."""
    rows = (
        (r.mode, r.rounds, r.committed, r.accept_length, r.modeled_speedup,
         _rates_cell(r.depth_accept_rates))
        for r in results
    )
    write_csv(path, METRICS_COLUMNS, rows)


def write_csv(path: Union[str, Path], columns: Sequence[str], rows: Iterable[tuple]) -> None:
    """Header line plus one line per row; floats as repr, bools as true/false."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
