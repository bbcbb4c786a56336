"""Ground-truth machinery and measurement.

Exact joint enumeration over tiny grids, and :func:`enumerate_draws`, the
exact law of code that draws through a :class:`~hawk.verifier.Draws`, are
the oracles that the distribution-preservation tests compare against.
Statistical thresholds are not hand-picked: the plain ancestral sampler is
run at the same sample size to measure the Monte Carlo noise floor, and
exact modes must land within a small multiple of it.

The report side holds theoretical rejection-probability curves for
dual-direction versus horizontal-only drafting, the vertical-versus-horizontal
KL trace of a decoded grid, and the CSV writers for the run results
(:class:`~hawk.engine.BatchResult`). The CSVs hold accept length, the
deterministic figure. Speed is measured, not modeled: wall clock is printed
(``hawk bench``'s ``wall_speedup``) and never written into the CSV outputs,
which must be byte-identical across reruns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Sequence, Union

import numpy as np

from .core import (
    GridSpec,
    SamplingConfig,
    TokenDistribution,
    apply_sampling_config,
    kl_divergence,
)
from .engine import BatchResult, EngineConfig
from .models import DraftHeadSet, TargetModel, pool_slots, slot_heads
from .rng import stream
from .verifier import rejection_mass

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


class _PastScript(Exception):
    """Raised at the first choice past a script, with its option count."""


class EnumeratingDraws:
    """The enumerating twin of :class:`~hawk.verifier.Draws`: it replays a script of
    choice indices and multiplies the weights of what they pick. A choice's
    options are those of positive weight, in order: a token's, its support
    weighted by its probabilities; an accept test's, accept then reject,
    weighted min(1, r) and 1 - min(1, r). A choice of one option takes no
    script entry. Draft uniforms are placeholders; residual exhaustion, which
    every replay through it would report again, is not logged."""

    __slots__ = ("script", "at", "weight")

    def __init__(self, script: tuple[int, ...]) -> None:
        self.script, self.at, self.weight = script, 0, 1.0

    def _choose(self, weights: list[float]) -> int:
        options = [i for i, w in enumerate(weights) if w > 0.0]
        pick = 0
        if len(options) > 1:
            if self.at == len(self.script):
                raise _PastScript(len(options))
            pick = self.script[self.at]
            self.at += 1
        self.weight *= weights[options[pick]]
        return options[pick]

    def uniforms(self, n: int) -> list[None]:
        return [None] * n

    def token(self, q: TokenDistribution, u: object) -> int:
        return self._choose(q.probs.tolist())

    def accept(self, ratio: float) -> bool:
        a = min(1.0, float(ratio))
        return self._choose([a, 1.0 - a]) == 0

    def sample(self, p: TokenDistribution) -> int:
        return self._choose(p.probs.tolist())

    def exhausted(self, step: int) -> None:
        pass


def enumerate_draws(run: Callable[[EnumeratingDraws], Hashable]) -> dict[Hashable, float]:
    """Exact law of ``run(draws)``, which makes every random choice through
    ``draws``: one run per script, depth first; a run that passes the end of
    its script is discarded for the script extended by each of that choice's
    options."""
    law: dict[Hashable, float] = {}
    scripts: list[tuple[int, ...]] = [()]
    while scripts:
        script = scripts.pop()
        draws = EnumeratingDraws(script)
        try:
            outcome = run(draws)
        except _PastScript as past:
            scripts.extend(script + (i,) for i in range(past.args[0]))
            continue
        law[outcome] = law.get(outcome, 0.0) + draws.weight
    return law


@dataclass
class RejectionCurves:
    """Mean rejection mass by candidate count, for both pool constructions."""

    dual: list[tuple[int, float]]
    horizontal_only: list[tuple[int, float]]


def _draft_fn(transform: SamplingConfig):
    """A head's draft as :meth:`~hawk.engine.DecodingContext.draft_dist` makes it:
    its prediction from ``tokens[:length]`` under ``transform``."""
    return lambda head, tokens, length: apply_sampling_config(head.predict(tokens, length),
                                                              transform)


def require_two_rows(grid: GridSpec) -> None:
    """Rejection curves take their positions from the second row on."""
    if grid.height < 2:
        raise ValueError(f"rejection curves need a grid of at least two rows, got {grid.height}")


def rejection_curve(
    model: TargetModel,
    heads: DraftHeadSet,
    config: EngineConfig,
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
    over positions. The drafts are the ones a pool for the position holds
    once the tokens before it have committed: one copy of each slot of its
    :func:`~hawk.models.pool_slots`, the vertical drafts then the depth-1
    horizontal one.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if position_count < 1:
        raise ValueError(f"position_count must be >= 1, got {position_count}")
    if config.vertical_depth < 1 or config.samples_per_vertical < 1:
        raise ValueError("rejection curves need vertical drafts: vertical_depth and "
                         "samples_per_vertical >= 1")
    grid = model.grid
    require_two_rows(grid)
    gen = stream(seed, "rejection-curve")
    dual_sums = np.zeros(m_max)
    horiz_sums = np.zeros(m_max)
    # Each grid gives size - width positions, so these are the grids a
    # draw-until-enough loop would take.
    per_grid = grid.size - grid.width
    samples = [tuple(s) for s in model.sample_grid(gen, -(-position_count // per_grid)).tolist()]
    draft = _draft_fn(config.transform)
    by_slot, _ = slot_heads(heads, config.vertical_depth)
    for n in range(position_count):
        sample, t = samples[n // per_grid], grid.width + n % per_grid
        target = apply_sampling_config(model.conditional(sample[:t]), config.transform)
        cycle = [draft(by_slot[s.head], sample, s.length)
                 for s in pool_slots(grid.width, t, 1, config.vertical_depth, 1, 1)]
        horizontal = cycle[-1]
        dual_sums += rejection_mass(target, [cycle[i % len(cycle)] for i in range(m_max)])
        horiz_sums += rejection_mass(target, [horizontal] * m_max)
    return RejectionCurves(
        dual=[(m, float(dual_sums[m - 1] / position_count)) for m in range(1, m_max + 1)],
        horizontal_only=[
            (m, float(horiz_sums[m - 1] / position_count)) for m in range(1, m_max + 1)
        ],
    )


def kl_trace(
    heads: DraftHeadSet, config: EngineConfig, tokens: Union[np.ndarray, Sequence[int]]
) -> list[tuple[int, float]]:
    """KL(depth-1 vertical draft || horizontal draft) per position of a decoded grid.

    The drafts are the ones a pool for each position holds once every token
    before it has committed (:func:`~hawk.models.pool_slots` with the
    frontier at the position). Every position from the second row on has a
    depth-1 vertical draft then, so the trace covers positions
    ``width .. size - 1`` in raster order. A config whose pools hold no
    vertical draft has no trace.
    """
    if min(heads.vertical_depth, config.vertical_depth, config.samples_per_vertical) < 1:
        raise ValueError("a KL trace needs pools that hold a vertical head's drafts: "
                         "vertical_depth and samples_per_vertical >= 1")
    flat = np.asarray(tokens).reshape(-1).tolist()
    draft = _draft_fn(config.transform)
    out = []
    for t in range(heads.width, len(flat)):
        vertical = draft(heads.vertical[0], flat, pool_slots(heads.width, t, 1, 1, 1, 1)[0].length)
        out.append((t, kl_divergence(vertical, draft(heads.horizontal[0], flat, t))))
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


def write_metrics_csv(path: Union[str, Path], results: Sequence[BatchResult]) -> None:
    """One row per run result, fixed column order (``METRICS_COLUMNS``)."""
    rows = (
        (r.mode, r.rounds, r.committed, r.accept_length, _rates_cell(r.depth_accept_rates))
        for r in results
    )
    write_csv(path, METRICS_COLUMNS, rows)


def write_csv(path: Union[str, Path], columns: Sequence[str], rows: Iterable[tuple]) -> None:
    """Header line plus one line per row; floats as repr, bools as true/false."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
