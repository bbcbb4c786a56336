"""Ground-truth machinery.

Exact joint enumeration over tiny grids, and :func:`enumerate_draws`, the
exact law of code that draws through a :class:`~hawk.verifier.Draws`, are
the oracles that the distribution-preservation tests compare against.
Statistical thresholds are not hand-picked: the plain ancestral sampler is
run at the same sample size to measure the Monte Carlo noise floor, and
exact modes must land within a small multiple of it. The CSV reports are
written by :mod:`hawk.cli`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable

from .core import GridSpec, SamplingConfig, TokenDistribution, apply_sampling_config
from .models import TargetModel

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

