"""Grid geometry and probability-vector primitives.

Everything downstream (models, verification, the decoding engine) moves
probability vectors around; this module owns their representation, the
sampling transforms (temperature, top-k) that define effective target and
draft distributions, and the shape of 2-D token grids. It also holds the
one reader of JSON fields (:func:`json_value`, :func:`json_field`) that run
configs and the library constructors share, so both refuse the same values
with the same message and coerce nothing.

All types here are immutable values and all functions are pure, so they are
safe to share across threads or worker processes. A distribution lazily
caches two derived values, its cut table and its last sampling transform;
each is a function of the immutable entries, set in one assignment, so a
concurrent fill is a benign race.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

# Tolerance for "sums to one" checks on probability vectors.
SUM_TOLERANCE = 1e-9
# Entries in [-NEGATIVE_CLAMP, 0) are treated as rounding noise and clamped.
NEGATIVE_CLAMP = 1e-12
# The least value of each GridSpec field, as of a config file's grid section.
GRID_MINIMUMS = {"width": 1, "height": 1, "vocab_size": 2}


class StateError(RuntimeError):
    """An operation was invoked in a state that does not admit it."""


@dataclass(frozen=True)
class GridSpec:
    """Shape of a token grid: tokens per row, rows, and vocabulary size."""

    width: int
    height: int
    vocab_size: int
    #: Total number of tokens in the grid; the engine reads it several times a round.
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, minimum in GRID_MINIMUMS.items():
            json_value(getattr(self, name), name, int, minimum)
        object.__setattr__(self, "size", self.width * self.height)


class TokenDistribution:
    """An immutable probability vector over the vocabulary.

    The entries are validated on construction: non-negative (tiny negative
    rounding noise is clamped) and summing to one within ``SUM_TOLERANCE``.
    Its cut table is cached lazily to make repeated sampling cheap, and
    the last sampling transform applied is memoized as a ``(SamplingConfig,
    result)`` pair (see :func:`apply_sampling_config`), so the memo lives
    exactly as long as the distribution it describes.
    """

    __slots__ = ("probs", "_cut", "_memo")

    def __init__(self, probs: Union[Sequence[float], np.ndarray]) -> None:
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty 1-D sequence")
        low = float(arr.min())
        if low < 0.0:
            if low < -NEGATIVE_CLAMP:
                raise ValueError(f"negative probability {low}")
            np.clip(arr, 0.0, None, out=arr)
        total = float(arr.sum())
        if not abs(total - 1.0) <= SUM_TOLERANCE:  # also refuses NaN
            raise ValueError(f"probabilities sum to {total}, expected 1.0")
        arr.setflags(write=False)
        self.probs = arr
        self._cut = None
        self._memo = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "TokenDistribution":
        # Trusted constructor for arrays normalized by construction.
        out = object.__new__(cls)
        arr.setflags(write=False)
        out.probs = arr
        out._cut = None
        out._memo = None
        return out

    def prob(self, token: int) -> float:
        return float(self.probs[token])

    def __len__(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"TokenDistribution({self.probs.tolist()!r})"


def index_at(dist: TokenDistribution, u: float) -> int:
    """The token index that the uniform variate ``u`` in [0, 1) selects from ``dist``:
    the count of cuts of its cached :func:`sampling_table` at or below ``u``."""
    cut = dist._cut
    if cut is None:
        cut = sampling_table(dist)
    return int(np.searchsorted(cut, u, side="right"))


def sampling_table(dist: TokenDistribution) -> np.ndarray:
    """The cumulative table of ``dist`` cut before its last positive-probability token.

    It is filled on first use and cached on ``dist``. A variate at or past the
    last cut selects that last positive token, even where the cumulative sum
    falls short of 1, so a zero-probability token is never selected.
    """
    cut = dist._cut
    if cut is None:
        probs = dist.probs
        cut = dist._cut = probs.cumsum()[: probs.nonzero()[0][-1]]
    return cut


def sample_index(dist: TokenDistribution, rng) -> int:
    """Draw one token index from ``dist`` using a single uniform variate,
    ``rng.random()``: ``rng`` is a numpy generator or a :class:`~hawk.verifier.Draws`."""
    return index_at(dist, rng.random())


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling transform: temperature scaling followed by top-k filtering.

    ``top_k`` may be the string ``"all"`` (no filtering) or a positive
    integer; values at or above the vocabulary size are identities. Numbers
    are checked by :func:`json_value`, as a config file's are.
    """

    top_k: Union[int, str] = "all"
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.top_k != "all":
            json_value(self.top_k, "top_k", int, 1)
        if json_value(self.temperature, "temperature", float) <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def is_identity(self) -> bool:
        return self.top_k == "all" and self.temperature == 1.0


def apply_sampling_config(dist: TokenDistribution, config: SamplingConfig) -> TokenDistribution:
    """Temperature first, then top-k, matching the usual sampling pipeline.

    Temperature rescales ``p_i`` to ``p_i ** (1/temperature)``, renormalized,
    in log space so that very low temperatures concentrate mass on the argmax
    instead of underflowing to zero. Below about 1e-308, where every scaled
    log overflows to -inf, it is the T -> 0 limit: uniform over the argmax
    ties. Top-k keeps the k most probable tokens (ties at the cutoff go to the
    lowest index), zeroes the rest and renormalizes.

    The result is memoized on ``dist`` for the last config applied to it;
    a transform that returns ``dist`` itself is not memoized, so the memo
    never refers back to its owner.

    ``DecodingContext.target_dist`` and ``draft_dist`` in :mod:`hawk.engine`
    depend on this exact memo layout: they read ``dist._memo`` inline as the
    ``(config, result)`` pair and return ``result`` when ``config is`` their
    own, saving this call on a hit. A change to the pair changes them too;
    ``TestTransformMemoRead`` fails if either side changes alone.
    """
    memo = dist._memo
    if memo is not None and (memo[0] is config or memo[0] == config):
        return memo[1]
    probs = dist.probs
    if config.temperature != 1.0:
        with np.errstate(divide="ignore", over="ignore"):
            scaled = np.log(probs) / config.temperature
        top = scaled.max()
        weights = np.exp(scaled - top) if top > -np.inf else probs == probs.max()
        probs = weights / weights.sum()
    k, n = config.top_k, probs.size
    if k != "all" and k < n:
        # lexsort: primary key -probs (descending prob), secondary key index.
        keep = np.lexsort((np.arange(n), -probs))[:k]
        kept = np.zeros(n)
        kept[keep] = probs[keep]
        probs = kept / kept.sum()
    if probs is dist.probs:
        return dist
    out = TokenDistribution._wrap(probs)
    dist._memo = (config, out)
    return out


_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object",
}


def json_value(value, name: str, kind: type, minimum=None):
    """``value`` if it is a JSON value of ``kind`` and at least ``minimum``.

    Otherwise a ``ValueError`` of the form ``field '<name>' must be <kind>,
    got <value>`` (or ``must be >= <minimum>``). A boolean is of no kind,
    an integer counts as a number but ``2.0`` is no integer, and a number
    must be finite; a number comes back as a ``float``.
    """
    number = kind is float
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float) if number else kind)
        or (number and not abs(value) <= sys.float_info.max)  # also refuses NaN
    ):
        raise ValueError(f"field '{name}' must be {_KIND_NAMES[kind]}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"field '{name}' must be >= {minimum}, got {value!r}")
    return float(value) if number else value


def json_field(obj, key: str, where: str, kind: type, default=None, minimum=None):
    """Field ``key`` of the JSON object ``obj``, read by :func:`json_value`
    and named ``<where>.<key>``. An absent field reads as ``default``, so a
    field without one is required.
    """
    return json_value(obj.get(key, default), f"{where}.{key}", kind, minimum)
