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

Everything here is a pure function of its inputs plus an explicit random
stream, so invocations are safe to run in parallel with independent streams.
Draw order within a call: the caller passes one uniform per draft, drawn
independently of ``rng``, and step i's token is the index that
``uniforms[i]`` selects from q_i (:func:`~hawk.core.index_at`), computed
when the walk reaches step i. ``rng`` supplies one uniform per verification
step, then a single categorical draw if the round resamples.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import TokenDistribution, index_at, sample_index

logger = logging.getLogger(__name__)


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


def acceptance_ratio(p: TokenDistribution, q: TokenDistribution, token: int) -> float:
    """min(1, p(token) / q(token)); requires the token be sampleable under q."""
    qt = q.prob(token)
    if qt <= 0.0:
        raise ValueError(f"token {token} has zero draft probability")
    return min(1.0, p.prob(token) / qt)


def residual_update(
    p: TokenDistribution, q: TokenDistribution
) -> tuple[TokenDistribution, bool]:
    """Entrywise max(0, p - q), renormalized.

    Returns ``(residual, degenerate)``; ``degenerate`` is True when the
    leftover mass is zero (p dominated by q entrywise, which for normalized
    inputs means p == q), in which case the uniform fallback is returned.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    left = np.maximum(p.probs - q.probs, 0.0)
    mass = float(left.sum())
    if mass <= 0.0:
        n = len(p)
        return TokenDistribution._wrap(np.full(n, 1.0 / n)), True
    return TokenDistribution._wrap(left / mass), False


def _walk(
    p: TokenDistribution,
    drafts: Sequence[TokenDistribution],
    uniforms: Sequence[float],
    rng: np.random.Generator,
    accept_rule: Callable[[TokenDistribution, TokenDistribution, int], float] | None,
) -> VerificationOutcome:
    """Shared accept/reject walk; ``accept_rule(p_i, q_i, token)`` decides each
    step, or, if None, :func:`acceptance_ratio`'s rule and refusal, inlined.

    If a residual ever degenerates with drafts remaining (only reachable
    through floating-point exhaustion on tiny vocabularies), the remaining
    drafts are rejected deterministically without consuming randomness and
    the final resample uses the last non-degenerate residual.
    """
    if not drafts:
        raise ValueError("drafts must be nonempty")
    p_cur = p
    exhausted = False
    for index, q in enumerate(drafts):
        token = index_at(q, uniforms[index])
        if exhausted:
            accepted = False
        elif accept_rule is not None:
            accepted = rng.random() < accept_rule(p_cur, q, token)
        else:  # acceptance_ratio; u < min(1, r) exactly when u < r, as u < 1
            qt = q.probs[token]
            if qt <= 0.0:
                raise ValueError(f"token {token} has zero draft probability")
            accepted = rng.random() < p_cur.probs[token] / qt
        if accepted:
            return VerificationOutcome(token, index)
        if not exhausted:
            residual, degenerate = residual_update(p_cur, q)
            if degenerate:
                exhausted = True
                logger.warning(
                    "residual mass exhausted at step %d; keeping last residual", index
                )
            else:
                p_cur = residual
    emitted = sample_index(p_cur, rng)
    return VerificationOutcome(emitted, None)


def sequential_verify(
    p: TokenDistribution,
    drafts: Sequence[TokenDistribution],
    uniforms: Sequence[float],
    rng: np.random.Generator,
) -> VerificationOutcome:
    """Verify drafts in order against p, emitting exactly one token.

    Step i draws its candidate token from ``drafts[i]`` with ``uniforms[i]``.
    The first acceptance wins and ends the walk, so the tokens of later
    candidates are never computed. Otherwise the token is resampled from the
    residual left after all rejections.
    """
    return _walk(p, drafts, uniforms, rng, None)


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
            residual, exhausted = residual_update(p_cur, q)
            if not exhausted:
                p_cur = residual
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
    is the standard ratio; any larger neighborhood containing the token and
    any lam >= 1 can only raise it, so it dominates :func:`acceptance_ratio`
    pointwise. This rule is NOT distribution preserving; it trades output
    fidelity for acceptance rate and exists as a baseline to measure that
    trade. Like :func:`acceptance_ratio`, it refuses a token of zero draft
    probability.
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
    rng: np.random.Generator,
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

    return _walk(p, drafts, uniforms, rng, rule)


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
