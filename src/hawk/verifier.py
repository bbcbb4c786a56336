"""Multi-draft speculative verification with heterogeneous draft distributions.

One verification round walks an ordered list of draft distributions, one
per candidate. Step i draws candidate token t from its draft q_i and accepts
it with probability min(1, p_i(t) / q_i(t)), where p_1 is the target
conditional and each rejection refines the target via the residual update

    p_{i+1} = norm(max(0, p_i - q_i)).

If every candidate is rejected, the emitted token is drawn from the final
refined distribution. For candidate tokens drawn independently from their
own q_i, the emitted token is distributed exactly as p regardless of how
many drafts there are, what order they come in, or whether the q_i differ;
the oracle tests enumerate this claim directly.

The walk only decides: its outcome is the emitted token and the index of
the accepting candidate. A step's alpha is its marginal acceptance
probability sum_x min(p_i(x), q_i(x)), the chance it accepts before
conditioning on which token the draft proposed; :func:`chain_alphas`
computes it along the residual chain, and it alone, for the engine's trace
and for :func:`rejection_mass`, the product of (1 - alpha_i) over a chain:
the probability that the round falls through to the residual resample.

Both accept rules run one walk, :func:`sequential_verify`, which
:func:`lantern_sequential_verify` calls with its relaxed rule. It reads
p_i(t) and q_i(t) as Python floats, so a step does no numpy scalar math.

Every random choice is made by a :class:`Draws`, so calls with independent
ones may run in parallel. Draw order within a call: step i's token is
``draws.token(q_i, uniforms[i])``, chosen when the walk reaches step i;
each step then makes one ``draws.accept`` test, and a resample one
``draws.sample``. The enumerating twin of :class:`Draws`
(:func:`~hawk.oracle_metrics.enumerate_draws`) branches at each choice
instead, which gives the walk's exact law. Residual exhaustion is reported
through the draw object too (``draws.exhausted(step)``): :class:`Draws`
logs one warning per exhausted walk, and the twin logs nothing, so an
enumerated replay stays silent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import TokenDistribution, index_at, sample_index

logger = logging.getLogger(__name__)

# Draft uniforms fetched per refill; what Draws hands out does not depend on it.
READ_BLOCK = 256


class Draws:
    """Every random choice of a decode: draft uniforms, fetched in blocks (PCG64
    fills ``rng.random(n)`` with n scalar draws, so refills change nothing it
    hands out), the token a uniform selects, and verify-stream accept tests
    (a uniform below the ratio) and samples."""

    __slots__ = ("draft_rng", "verify_rng", "_block", "_next", "_random")

    def __init__(self, draft_rng: np.random.Generator, verify_rng: np.random.Generator) -> None:
        self.draft_rng, self.verify_rng = draft_rng, verify_rng
        self._block: list[float] = []
        self._next = 0
        self._random = verify_rng.random

    def uniforms(self, n: int) -> list[float]:
        start, end = self._next, self._next + n
        if end > len(self._block):
            self._block = self._block[start:] + self.draft_rng.random(max(n, READ_BLOCK)).tolist()
            start, end = 0, n
        self._next = end
        return self._block[start:end]

    def token(self, q: TokenDistribution, u: float) -> int:
        return index_at(q, u)

    def accept(self, ratio: float) -> bool:
        return self._random() < ratio

    def sample(self, p: TokenDistribution) -> int:
        return sample_index(p, self.verify_rng)

    def exhausted(self, step: int) -> None:
        logger.warning("residual mass exhausted at step %d; keeping last residual", step)


@dataclass(slots=True)
class VerificationOutcome:
    """Result of one round: exactly one emitted token.

    ``accepted_index`` is the position of the accepting draft in the input
    order, or None when the round fell through to the resample. Step i
    verified ``drafts[i]``, so an accepting walk took
    ``accepted_index + 1`` steps and a resampling one all of them.
    """

    emitted_token: int
    accepted_index: int | None


def residual_update(
    p: TokenDistribution, q: TokenDistribution
) -> tuple[TokenDistribution, bool]:
    """Entrywise max(0, p - q), renormalized.

    Returns ``(residual, degenerate)``; ``degenerate`` is True when the
    leftover mass is zero (p dominated by q entrywise, which for normalized
    inputs means p == q), in which case ``p`` itself stands as the residual:
    every caller keeps the last non-degenerate residual.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    left = np.maximum(p.probs - q.probs, 0.0)
    mass = float(left.sum())
    if mass <= 0.0:
        return p, True
    return TokenDistribution._wrap(left / mass), False


def sequential_verify(
    p: TokenDistribution,
    drafts: Sequence[TokenDistribution],
    uniforms: Sequence[float],
    draws: Draws,
    *,
    accept_rule: Callable[[TokenDistribution, TokenDistribution, int], float] | None = None,
) -> VerificationOutcome:
    """Verify drafts in order against p, emitting exactly one token: the first
    accepted candidate's, which ends the walk before later candidates draw
    their tokens, or else one resampled from the final residual.

    ``accept_rule(p_i, q_i, token)`` gives each step's acceptance
    probability; without one, the standard min(1, p_i(token) / q_i(token)),
    which refuses a token of zero draft probability. Once a residual
    degenerates (floating-point exhaustion on tiny vocabularies), the
    remaining drafts are rejected without drawing their tokens and the
    resample uses the last non-degenerate residual.
    """
    if not drafts:
        raise ValueError("drafts must be nonempty")
    token_at, accept = draws.token, draws.accept
    p_cur = p
    for index, q in enumerate(drafts):
        token = token_at(q, uniforms[index])
        if accept_rule is None:  # accept(r) accepts with probability min(1, r): r goes unclipped
            qt = q.probs.item(token)
            if qt <= 0.0:
                raise ValueError(f"token {token} has zero draft probability")
            accepted = accept(p_cur.probs.item(token) / qt)
        else:
            accepted = accept(accept_rule(p_cur, q, token))
        if accepted:
            return VerificationOutcome(token, index)
        p_cur, exhausted = residual_update(p_cur, q)
        if exhausted:
            draws.exhausted(index)
            break
    return VerificationOutcome(draws.sample(p_cur), None)


def chain_alphas(p: TokenDistribution, drafts: Sequence[TokenDistribution]) -> list[float]:
    """Entry j is the alpha sum_x min(p_j(x), q_j(x)) of draft j, where p_j is
    the residual left by rejecting drafts 0..j-1 from p; as in the walk, once
    a residual degenerates, the last non-degenerate one stands in.
    """
    alphas = []
    p_cur = p
    exhausted = False
    for q in drafts:
        alphas.append(float(np.minimum(p_cur.probs, q.probs).sum()))
        if not exhausted:
            p_cur, exhausted = residual_update(p_cur, q)
    return alphas


def rejection_mass(p: TokenDistribution, drafts: Sequence[TokenDistribution]) -> list[float]:
    """Probability that the first m drafts of a chain are all rejected, for m = 1..len(drafts).

    Entry m - 1 is prod_{j<=m} (1 - alpha_j) over :func:`chain_alphas`, so
    the masses never increase along the chain.
    """
    masses = []
    product = 1.0
    for alpha in chain_alphas(p, drafts):
        product *= 1.0 - alpha
        masses.append(max(product, 0.0))
    return masses


def lantern_acceptance(
    p: TokenDistribution,
    q: TokenDistribution,
    token: int,
    neighborhood: np.ndarray | Sequence[int],
    lam: float,
) -> float:
    """Relaxed acceptance aggregating target mass over a token neighborhood.

    Returns min(1, lam * sum_{x in neighborhood} p(x) / q(token)), summed in
    the neighborhood's order. With a singleton neighborhood and lam = 1 this
    is the standard min(1, p(token) / q(token)), which it dominates for any
    larger neighborhood containing the token and any lam >= 1. It is NOT
    distribution preserving: a baseline that trades output fidelity for
    acceptance rate. Like the standard rule, it refuses a token of zero
    draft probability.
    """
    if lam < 1.0:
        raise ValueError(f"lam must be >= 1, got {lam}")
    idx = np.asarray(neighborhood, dtype=np.intp)
    if token not in idx.tolist():
        raise ValueError(f"token {token} not in its neighborhood")
    qt = q.prob(token)
    if qt <= 0.0:
        raise ValueError(f"token {token} has zero draft probability")
    mass = float(p.probs[idx].sum())
    return min(1.0, lam * mass / qt)


def lantern_sequential_verify(
    p: TokenDistribution,
    drafts: Sequence[TokenDistribution],
    uniforms: Sequence[float],
    draws: Draws,
    neighborhoods: Sequence[np.ndarray | Sequence[int]],
    lam: float,
) -> VerificationOutcome:
    """Sequential walk with the relaxed neighborhood acceptance rule.

    The token draws and the rejection bookkeeping (residual updates, final
    resample) match :func:`sequential_verify`; only the per-step acceptance
    probability is relaxed. ``neighborhoods[t]`` lists the tokens counted
    toward accepting a proposal of token t. Its trace rows take their alphas
    from :func:`chain_alphas`, the standard sum-min definition, so traces
    remain comparable across modes.
    """
    def rule(p_cur: TokenDistribution, q: TokenDistribution, token: int) -> float:
        return lantern_acceptance(p_cur, q, token, neighborhoods[token], lam)

    return sequential_verify(p, drafts, uniforms, draws, accept_rule=rule)


def token_neighborhoods(embeddings: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """k-nearest-neighbor token sets under Euclidean distance in embedding space.

    Each set is a sorted ``intp`` array, which :func:`lantern_acceptance`
    indexes with as it is. Each token's own point is at distance zero, so it
    is always a member. ``k`` is clipped to the vocabulary size; ties break
    by token index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    points = np.asarray(embeddings, dtype=np.float64)
    n = points.shape[0]
    k = min(k, n)
    out = []
    for t in range(n):
        d = np.linalg.norm(points - points[t], axis=1)
        order = np.lexsort((np.arange(n), d))
        out.append(np.sort(order[:k]))
    return tuple(out)
