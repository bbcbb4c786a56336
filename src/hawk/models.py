"""Conditional-distribution providers: target models and draft heads.

Target models produce the next-token conditional for a raster-order prefix
over a 2-D grid. Draft heads predict tokens at a fixed raster offset ahead
of the last committed token: a horizontal head of depth d targets offset d,
a vertical head of depth v targets offset v * width (the same column, v rows
down). Heads only ever see the committed prefix, never speculative tokens.

In place of neural draft-head training, heads here are fitted as tabular
maximum-likelihood estimators over a small context signature: the last two
committed tokens plus the current column index. The column component lets
vertical heads exploit column identity, which is what makes them competitive
at offset width despite the larger raster distance. Richer signatures (more
history, the row index) would trade table size for fidelity; the two-token
form keeps everything desk-scale.

Fitting and held-out scoring draw ``sample_count`` grids in blocks, one
``sample_grid(rng, count)`` call per block, whose row n is the grid the
n-th one-grid call would draw (:meth:`TargetModel.sample_grid`;
``GridMarkovModel`` fills a block one anti-diagonal at a time, in the
skewed layout its constructor describes). The grids are counted or
scored by signature code: a context shorter than two tokens is padded on
the left with the boundary token k (the vocabulary size), as the target's
tables pad theirs, and the last two tokens ``(a, b)`` at column c have code
``(c * (k + 1) + a) * (k + 1) + b``, so no Python runs per token there. A
block's codes are computed once; fitting counts, and each head scores, the
flat cell ``code * k + token`` of a frontier and the token d steps past it.
Rows are normalized one by one and log terms subtracted in sample, then
position, order, so every probability and NLL equals a per-position loop's
bit for bit. Counting takes ``width * (k + 1)**2 * k`` integers per offset.

A tabular head keeps one table, keyed by signature code, and lays it out
once as the flat code-by-token array of ``width * (k + 1)**2 * k`` logs
(each probability floored at 1e-300) that scoring reads, and once as a
code-ordered list of rows, the uniform fallback at codes that fitting never
saw, which ``predict`` indexes with the code of its prefix. Only the heads
file that ``save_head_set`` writes spells a signature out, as a context and
a column.

Models and head sets are immutable after construction, so concurrent readers
are safe. Fitting is single-threaded per call; independent fits can run in
parallel.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .core import (
    GridSpec,
    TokenDistribution,
    json_value,
    sampling_table,
)
from .rng import stream

FORMAT_VERSION = 1

class TargetModel(abc.ABC):
    """Autoregressive model over a token grid in raster order."""

    grid: GridSpec
    #: 2-D points standing in for codebook latents; used by the relaxed
    #: acceptance baseline to define token neighborhoods.
    token_embeddings: np.ndarray

    @abc.abstractmethod
    def conditional(self, prefix: Sequence[int]) -> TokenDistribution:
        """Distribution of the next raster position given a committed prefix.

        Prefixes that share a conditional should get the same object back:
        sampling transforms are memoized on the distribution itself.
        """

    @abc.abstractmethod
    def sample_grid(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` ancestral samples of a complete grid, one per row, in raster order.

        Draws the block's uniforms as one ``rng.random((count, size))`` call,
        which PCG64 fills exactly as ``count * size`` scalar draws, and gives
        position i of row n the token ``sample_index`` would draw with that
        row's i-th. Row n is the grid the n-th of ``count`` one-grid calls
        would draw.
        """


class GridMarkovModel(TargetModel):
    """Toy spatial model: the conditional depends on the left and above neighbors.

    ``tables[left, above]`` is a distribution row, with index k (the last
    slot, k the vocabulary size) reserved for the boundary context at row
    starts and in the first row: a distinct context value, not a
    vocabulary member.
    """

    def __init__(self, grid: GridSpec, tables: np.ndarray, token_embeddings: np.ndarray) -> None:
        k = grid.vocab_size
        tables = np.asarray(tables, dtype=np.float64)
        if tables.shape != (k + 1, k + 1, k):
            raise ValueError(f"tables must have shape {(k + 1, k + 1, k)}, got {tables.shape}")
        self.grid = grid
        self.tables = tables
        self.token_embeddings = np.asarray(token_embeddings, dtype=np.float64)
        self._boundary = k  # the boundary context's index in each table axis
        # Validate every row once, then hand out the same immutable objects.
        self._rows = [
            [TokenDistribution(tables[left, above]) for above in range(k + 1)]
            for left in range(k + 1)
        ]
        # Column left * (k + 1) + above of the cuts is that row's (the
        # boundary context is index k): entry i of a column is entry i of
        # the row's sampling table, +inf past its end, so the token a row
        # draws with a uniform is the count of its cuts at or below it, as
        # hawk.core.index_at counts them.
        cuts = np.full((k - 1, (k + 1) ** 2), np.inf)
        for j, dist in enumerate(dist for row in self._rows for dist in row):
            table = sampling_table(dist)
            cuts[: len(table), j] = table
        self._cuts = list(cuts)
        # Position (r, c) reads (r, c - 1) and (r - 1, c), both on the
        # anti-diagonal before its own. ``sample_grid`` keeps a block's tokens
        # skewed: slot [d + 1, r + 1] holds position (r, d - r), so the left
        # and above neighbors of diagonal d's rows r0..r1-1 are the slices
        # [d, r0 + 1 : r1 + 1] and [d, r0 : r1] of the diagonal before it,
        # not gathers. Slots [d, 0] (row -1) and [d, d + 1] (column -1) are
        # never written and hold the boundary context. _diagonals holds each
        # diagonal's (r0, r1), _raster each raster position's flat slot.
        height, width = grid.height, grid.width
        self._diagonals = [
            (max(0, d - width + 1), min(height, d + 1)) for d in range(height + width - 1)
        ]
        rows, cols = np.divmod(np.arange(grid.size), width)
        self._raster = (rows + cols + 1) * (height + 1) + rows + 1

    def conditional(self, prefix: Sequence[int]) -> TokenDistribution:
        pos = len(prefix)
        width = self.grid.width
        left = prefix[pos - 1] if pos % width != 0 else self._boundary
        above = prefix[pos - width] if pos >= width else self._boundary
        return self._rows[left][above]

    def sample_grid(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # The base class's draw, a diagonal of every grid in the block at a
        # time, in the skewed layout of __init__; skewed[d, r] is the uniform
        # of position (r, d - r), so a diagonal's uniforms are one slice too.
        # A token is the count of its cuts at or below its uniform. int16
        # holds any vocabulary whose table fits in memory (k < 2**15).
        height, width, k = self.grid.height, self.grid.width, self.grid.vocab_size
        uniforms = rng.random((count, self.grid.size)).T.reshape(height, width, count)
        skewed = np.empty((height + width - 1, height, count))
        for r in range(height):
            skewed[r : r + width, r] = uniforms[r]
        tokens = np.full((height + width, height + 1, count), k, dtype=np.int16)
        first, *rest = self._cuts
        for d, (r0, r1) in enumerate(self._diagonals):
            pair = tokens[d, r0 + 1 : r1 + 1].astype(np.intp)
            pair *= k + 1
            pair += tokens[d, r0:r1]
            u = skewed[d, r0:r1]
            token = tokens[d + 1, r0 + 1 : r1 + 1]
            token[...] = first[pair] <= u
            for cut in rest:
                np.add(token, cut[pair] <= u, out=token)
        slots = tokens.reshape((height + width) * (height + 1), count)
        return slots[self._raster].T.astype(np.int64, order="C")


def _random_rows(rng: np.random.Generator, count: int, vocab_size: int) -> np.ndarray:
    # Squared-exponential weights give visibly peaked conditionals, which is
    # what makes head alignment differences measurable on small vocabularies.
    u = np.maximum(rng.random((count, vocab_size)), 1e-16)
    w = np.log(u) ** 2
    return w / w.sum(axis=1, keepdims=True)


def _random_embeddings(rng: np.random.Generator, vocab_size: int) -> np.ndarray:
    return rng.random((vocab_size, 2))


def make_grid_markov_target(grid: GridSpec, seed: int, vertical_weight: float) -> GridMarkovModel:
    """Build a seeded GridMarkovModel.

    ``vertical_weight`` mixes two independent conditional families: with
    weight w the conditional is ``(1 - w) * L[left] + w * A[above]``, so 0
    depends only on the left neighbor and 1 only on the above neighbor. It is
    read by :func:`~hawk.core.json_value`, as a config file's is.
    """
    w = json_value(vertical_weight, "vertical_weight", float, 0)
    if w > 1:
        raise ValueError(f"field 'vertical_weight' must be <= 1, got {vertical_weight!r}")
    k = grid.vocab_size
    gen = stream(seed, "grid-markov-tables")
    left_rows = _random_rows(gen, k + 1, k)
    above_rows = _random_rows(gen, k + 1, k)
    tables = (1.0 - w) * left_rows[:, None, :] + w * above_rows[None, :, :]
    embeddings = _random_embeddings(stream(seed, "token-embeddings"), k)
    return GridMarkovModel(grid, tables, embeddings)


# ---------------------------------------------------------------------------
# Draft heads
# ---------------------------------------------------------------------------


class DraftHead(abc.ABC):
    """Predictor for the token ``offset`` raster steps past the last commit.

    For a committed prefix of length L the predicted position is
    ``L - 1 + offset``.
    """

    offset: int

    @abc.abstractmethod
    def predict(self, tokens: Sequence[int], length: int) -> TokenDistribution:
        """Draft distribution given the committed prefix ``tokens[:length]``
        only, read in place: later tokens are ignored."""

    @abc.abstractmethod
    def true_token_logs(self, keys: np.ndarray, grids: np.ndarray) -> np.ndarray:
        """Floored logs of what ``predict`` gives the true token, for a block of
        complete grids, one per row, whose signature codes times k are ``keys``:
        entry ``[i, L]``, for L in 0..size-offset, is
        ``log(max(predict(grids[i, :L]).prob(grids[i, L - 1 + offset]), 1e-300))``."""


def _code_count(width: int, vocab_size: int) -> int:
    return width * (vocab_size + 1) ** 2


def _signature_of(code: int, vocab_size: int) -> tuple[tuple[int, ...], int]:
    """The signature whose code is ``code``: its context without the padding."""
    k = vocab_size
    rest, b = divmod(code, k + 1)
    column, a = divmod(rest, k + 1)
    return tuple(t for t in (a, b) if t < k), column


def _signature_codes(grids: np.ndarray, width: int, vocab_size: int) -> np.ndarray:
    """Column L of row i is the signature code of the prefix ``grids[i, :L]``, L < size."""
    k = vocab_size
    codes = np.empty(grids.shape, dtype=np.int64)
    codes[:, :2] = k  # the token two back, padded
    codes[:, 2:] = grids[:, :-2]
    codes *= k + 1
    codes[:, :1] += k  # the token one back, padded
    codes[:, 1:] += grids[:, :-1]
    codes += np.arange(grids.shape[1]) % width * (k + 1) ** 2
    return codes


def _cell_index(keys: np.ndarray, grids: np.ndarray, offset: int) -> np.ndarray:
    """Entry ``[i, L]``, for L in 0..size-offset, is the cell ``code * k + token`` of
    frontier L of ``grids[i]`` and the token ``offset`` past it, given codes * k."""
    span = max(0, grids.shape[1] - offset + 1)
    return keys[:, :span] + grids[:, offset - 1 :]


class TabularDraftHead(DraftHead):
    """Empirical conditional rows keyed by signature code; a signature never
    seen in fitting gets the smoothed empty count vector, i.e. uniform."""

    def __init__(
        self,
        offset: int,
        width: int,
        vocab_size: int,
        smoothing: float,
        table: dict[int, TokenDistribution],
    ) -> None:
        if offset < 1:
            raise ValueError(f"offset must be >= 1, got {offset}")
        self.offset = offset
        self.width = width
        self.vocab_size = vocab_size
        self.smoothing = smoothing
        self.table = table
        self._fallback = TokenDistribution._wrap(np.full(vocab_size, 1.0 / vocab_size))
        # Row ``code`` of ``_rows`` is ``table.get(code, _fallback)``, read by index.
        self._rows = [self._fallback] * _code_count(width, vocab_size)
        probs = np.full((len(self._rows), vocab_size), 1.0 / vocab_size)
        for code, dist in table.items():
            self._rows[code] = dist
            probs[code] = dist.probs
        self._logs = np.log(np.maximum(probs, 1e-300)).ravel()

    def predict(self, tokens: Sequence[int], length: int) -> TokenDistribution:
        k = self.vocab_size  # also the token read before position 0
        a = tokens[length - 2] if length > 1 else k
        b = tokens[length - 1] if length else k
        return self._rows[(length % self.width * (k + 1) + a) * (k + 1) + b]

    def true_token_logs(self, keys: np.ndarray, grids: np.ndarray) -> np.ndarray:
        return self._logs.take(_cell_index(keys, grids, self.offset))


def head_offsets(
    width: int, horizontal_depth: int, vertical_depth: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Raster offsets of the heads for depths 1..H and 1..VSD.

    Horizontal depth n predicts offset n; vertical depth d predicts offset
    ``d * width``, the same column d rows down. On a grid no wider than H
    the two directions share offsets (a 2-wide grid's horizontal depth 2
    and vertical depth 1 both predict offset 2); they stay distinct heads.
    """
    json_value(horizontal_depth, "horizontal_depth", int, 1)
    json_value(vertical_depth, "vertical_depth", int, 0)
    return (
        tuple(range(1, horizontal_depth + 1)),
        tuple(width * d for d in range(1, vertical_depth + 1)),
    )


@dataclass(frozen=True)
class DraftHeadSet:
    """Horizontal heads for depths 1..H plus vertical heads for depths 1..VSD."""

    width: int
    horizontal: tuple[DraftHead, ...]
    vertical: tuple[DraftHead, ...] = field(default=())

    def __post_init__(self) -> None:
        want_h, want_v = head_offsets(self.width, len(self.horizontal), len(self.vertical))
        got_h = tuple(h.offset for h in self.horizontal)
        if got_h != want_h:
            raise ValueError(f"horizontal offsets must be {want_h}, got {got_h}")
        got_v = tuple(h.offset for h in self.vertical)
        if got_v != want_v:
            raise ValueError(f"vertical offsets must be {want_v}, got {got_v}")

    def check_grid(self, grid: GridSpec) -> None:
        """Raise ``ValueError`` unless the heads fit ``grid``'s width and vocabulary."""
        if self.width != grid.width:
            raise ValueError(f"head set width {self.width} does not match grid width {grid.width}")
        for head in self.horizontal + self.vertical:
            if getattr(head, "vocab_size", grid.vocab_size) != grid.vocab_size:
                raise ValueError(
                    f"head set vocab_size does not match grid vocab_size {grid.vocab_size}"
                )

    @property
    def horizontal_depth(self) -> int:
        return len(self.horizontal)

    @property
    def vertical_depth(self) -> int:
        return len(self.vertical)


# Fitting and scoring sample and stack at most this many grids at a time.
# At blocks of 64, 128 and 256, perfbench's image_16x16 (bench_16x16's
# heads: 3,000 grids of 16x16, vocabulary 6) read fit_s 35, 29 and 25 ms
# and peak_rss_mb 41.0, 42.3 and 44.1 MiB (medians of 5 runs on a 2-vCPU
# x86 box), and one fit's tracemalloc peaks were 0.97, 1.78 and 3.46 MiB.
# 256 would fit a seventh faster for 1.9 MiB (4.4%) more peak RSS.
_BLOCK_GRIDS = 128


def _sample_blocks(
    model: TargetModel, count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """``count`` ancestral samples, in blocks of one ``sample_grid`` call each."""
    for start in range(0, count, _BLOCK_GRIDS):
        yield model.sample_grid(rng, min(_BLOCK_GRIDS, count - start))


def fit_tabular_draft_heads(
    model: TargetModel,
    horizontal_depth: int,
    vertical_depth: int,
    sample_count: int,
    seed: int,
    smoothing: float = 0.5,
) -> DraftHeadSet:
    """Fit tabular heads by maximum likelihood over ancestral samples.

    Draws ``sample_count`` complete grids from the target model and, for each
    offset d, tabulates the empirical distribution of the token d steps past
    every frontier, keyed by the signature code. Additive smoothing keeps
    every fitted probability positive, which both guarantees that sampled
    candidates are sampleable under their own draft and stabilizes residual
    chains on tiny vocabularies.

    Heads are fitted for horizontal depths 1..``horizontal_depth`` and
    vertical depths 1..``vertical_depth``, at the offsets of
    :func:`head_offsets`. Numbers are checked by :func:`~hawk.core.json_value`,
    as a config file's are.
    """
    json_value(sample_count, "sample_count", int, 1)
    json_value(smoothing, "smoothing", float, 0)
    grid = model.grid
    horizontal, vertical = head_offsets(grid.width, horizontal_depth, vertical_depth)

    unique_offsets = sorted(set(horizontal) | set(vertical))
    k = grid.vocab_size
    width = grid.width
    cells = _code_count(width, k) * k
    # counts[d][code * k + token]: frontiers with that signature code whose
    # token d steps ahead is ``token``. Offsets past the grid count nothing.
    counts = {d: np.zeros(cells, dtype=np.int64) for d in unique_offsets if d <= grid.size}

    for grids in _sample_blocks(model, sample_count, stream(seed, "head-fit")):
        keys = _signature_codes(grids, width, k)
        keys *= k
        for d, total in counts.items():
            total += np.bincount(_cell_index(keys, grids, d).ravel(), minlength=cells)

    dists: dict[int, dict[int, TokenDistribution]] = {d: {} for d in unique_offsets}
    for d, total in counts.items():
        rows = total.reshape(-1, k)
        seen = np.flatnonzero(rows.any(axis=1))
        smoothed = rows[seen] + float(smoothing)
        probs = smoothed / smoothed.sum(axis=1, keepdims=True)
        dists[d] = dict(zip(seen.tolist(), map(TokenDistribution._wrap, probs)))

    def head(offset: int) -> TabularDraftHead:
        return TabularDraftHead(offset, width, k, smoothing, dists[offset])

    return DraftHeadSet(
        width=width,
        horizontal=tuple(head(d) for d in horizontal),
        vertical=tuple(head(d) for d in vertical),
    )


def held_out_nll(
    model: TargetModel,
    heads: DraftHeadSet,
    sample_count: int,
    seed: int,
) -> dict[tuple[str, int], float]:
    """Mean negative log-likelihood of each head on fresh ancestral samples.

    Keys are ``(direction, depth)``; lower is better. This is the measurement
    behind the horizontal-vs-vertical decay comparison: heads at equal
    Euclidean rank (horizontal depth d vs vertical depth d) can be read off
    against each other. Heads with no position inside the grid get no key.
    ``sample_count`` is checked by :func:`~hawk.core.json_value`.
    """
    json_value(sample_count, "sample_count", int, 1)
    grid = model.grid
    heads.check_grid(grid)
    named = [(("horizontal", i + 1), h) for i, h in enumerate(heads.horizontal)]
    named += [(("vertical", i + 1), h) for i, h in enumerate(heads.vertical)]
    totals = {name: 0.0 for name, _ in named}
    for grids in _sample_blocks(model, sample_count, stream(seed, "head-holdout")):
        keys = _signature_codes(grids, grid.width, grid.vocab_size)
        keys *= grid.vocab_size
        for name, head in named:
            # One subtraction per position, sample-major then length, carried
            # across blocks: the sum a scalar loop would make, bit for bit
            # (numpy reduces subtract in order; only add's reduce is pairwise).
            logs = head.true_token_logs(keys, grids).ravel()
            totals[name] = float(np.subtract.reduce(logs, initial=totals[name]))
    return {
        name: totals[name] / (sample_count * (grid.size - head.offset + 1))
        for name, head in named
        if head.offset <= grid.size
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# Tabular head sets are saved as versioned JSON with fixed field names, for
# reading outside hawk: hawk reads no heads file, since the tabular spec that
# a fit's manifest echoes rebuilds it. Floats are written with Python's repr,
# which round-trips binary64, so each probability is stored exactly.


def _head_to_json(head: DraftHead) -> dict:
    if not isinstance(head, TabularDraftHead):
        raise ValueError(f"only tabular heads serialize, got {type(head).__name__}")
    rows = {_signature_of(code, head.vocab_size): dist for code, dist in head.table.items()}
    entries = [
        {"context": list(ctx), "column": col, "probs": dist.probs.tolist()}
        for (ctx, col), dist in sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]
    return {
        "offset": head.offset,
        "smoothing": head.smoothing,
        "entries": entries,
    }


def save_head_set(heads: DraftHeadSet, path: Union[str, Path]) -> None:
    vocab_sizes = {h.vocab_size for h in heads.horizontal + heads.vertical
                   if isinstance(h, TabularDraftHead)}
    if len(vocab_sizes) != 1:
        raise ValueError("head set must contain tabular heads with a single vocab size")
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "tabular_heads",
        "width": heads.width,
        "vocab_size": vocab_sizes.pop(),
        "horizontal": [_head_to_json(h) for h in heads.horizontal],
        "vertical": [_head_to_json(h) for h in heads.vertical],
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=1, allow_nan=False)
