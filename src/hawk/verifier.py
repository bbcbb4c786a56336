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
computes it along the residual chain, and it alone, for the reports that
reduce a traced walk.
The product of (1 - alpha_i) over a chain is the probability that the walk
falls through to the residual resample.

Both accept rules run one walk, :func:`sequential_verify`, which
:func:`lantern_sequential_verify` calls with its relaxed rule. It reads
p_i(t) and q_i(t) as Python floats, so a step does no numpy scalar math.

Every random choice is made by a :class:`Draws`, so calls with independent
ones may run in parallel. Draw order within a call: step i's token is
``draws.token(q_i, uniforms[i])``, chosen when the walk reaches step i;
each step then makes one ``draws.accept`` test, and a resample one
``draws.sample``. :class:`Draws` reads both of its streams in blocks of
``READ_BLOCK``: the verify stream through a :func:`block_reader`, and the
draft stream into a kept list that ``draws.uniforms`` slices. Either hands
out the same values, in the same order, as scalar draws would. The
enumerating twin of :class:`Draws`
(:func:`~hawk.oracle_metrics.enumerate_draws`) branches at each choice
instead, which gives the walk's exact law. Residual exhaustion is reported
through the draw object too (``draws.exhausted(step)``): :class:`Draws`
logs one warning per exhausted walk, and the twin logs nothing, so an
enumerated replay stays silent.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import TokenDistribution, index_at, sample_index

logger = logging.getLogger(__name__)

# Uniforms fetched per refill of either stream; what Draws hands out does not depend on it.
READ_BLOCK = 256


def block_reader(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s uniforms one at a time, as Python floats, fetched ``READ_BLOCK``
    per ``rng.random`` call. PCG64 fills ``rng.random(n)`` with n scalar
    draws, so the values and their order are those of scalar ``rng.random()``
    calls; only the generator's end state runs ahead of them."""
    blocks = map(rng.random, itertools.repeat(READ_BLOCK))
    return itertools.chain.from_iterable(map(np.ndarray.tolist, blocks))


class Draws:
    """Every random choice of a decode, each stream read ``READ_BLOCK`` at a
    time: draft uniforms, the token a uniform selects, and verify-stream
    accept tests (a uniform below the ratio) and samples.

    ``random()`` hands out the next verify-stream uniform. It is a
    :func:`block_reader`'s own ``__next__``, so a draw runs no Python code.
    ``uniforms(n)`` slices the next n draft uniforms from a kept list, which
    it refills from the draft stream when a request runs past its end."""

    __slots__ = ("_draft_rng", "_kept", "_used", "random")

    def __init__(self, draft_rng: np.random.Generator, verify_rng: np.random.Generator) -> None:
        self._draft_rng = draft_rng
        self._kept: list[float] = []
        self._used = 0
        self.random = block_reader(verify_rng).__next__

    def uniforms(self, n: int) -> list[float]:
        start, kept = self._used, self._kept
        stop = start + n
        if stop > len(kept):  # keep the unread tail, refilled to at least n
            kept = kept[start:]
            while len(kept) < n:
                kept += self._draft_rng.random(READ_BLOCK).tolist()
            self._kept, start, stop = kept, 0, n
        self._used = stop
        return kept[start:stop]

    def token(self, q: TokenDistribution, u: float) -> int:
        return index_at(q, u)

    def accept(self, ratio: float) -> bool:
        return self.random() < ratio

    def sample(self, p: TokenDistribution) -> int:
        return sample_index(p, self)

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
    if p.probs.size != q.probs.size:
        raise ValueError(f"length mismatch: {p.probs.size} vs {q.probs.size}")
    left = p.probs - q.probs
    np.maximum(left, 0.0, out=left)
    mass = np.add.reduce(left)
    if mass <= 0.0:
        return p, True
    left /= mass
    return TokenDistribution._wrap(left), False


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
            if accept(p_cur.probs.item(token) / qt):
                return VerificationOutcome(token, index)
        elif accept(accept_rule(p_cur, q, token)):
            return VerificationOutcome(token, index)
        p_cur, exhausted = residual_update(p_cur, q)
        if exhausted:
            draws.exhausted(index)
            break
    return VerificationOutcome(draws.sample(p_cur), None)


def chain_alphas(p: TokenDistribution, drafts: Sequence[TokenDistribution]) -> list[float]:
    """Entry j is the alpha sum_x min(p_j(x), q_j(x)) of draft j, where p_j is
    the residual left by rejecting drafts 0..j-1 from p, for the steps the
    walk can take: it stops, as the walk does, at the draft whose rejection
    exhausts the residual, so the list is shorter than ``drafts`` then.
    """
    alphas = []
    p_cur = p
    for index, q in enumerate(drafts):
        if index:  # the residual left by rejecting the draft before q
            p_cur, exhausted = residual_update(p_cur, drafts[index - 1])
            if exhausted:
                break
        alphas.append(float(np.add.reduce(np.minimum(p_cur.probs, q.probs))))
    return alphas


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
    indexes with as it is. Each token's own point is at distance zero and
    wins every tie, so it is always a member. ``k`` is clipped to the
    vocabulary size; other ties break by token index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    points = np.asarray(embeddings, dtype=np.float64)
    n = points.shape[0]
    k = min(k, n)
    out = []
    for t in range(n):
        d = np.linalg.norm(points - points[t], axis=1)
        order = np.lexsort((np.arange(n), np.arange(n) != t, d))
        out.append(np.sort(order[:k]))
    return tuple(out)
