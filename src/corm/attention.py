"""Pure attention math shared by the model, the eviction policies, and analysis.

All score arithmetic is done in float64 regardless of how model weights are
stored: eviction decisions compare normalized scores against a 1/t threshold,
which is sensitive near equality, so this module never drops to float32.
Every function here is stateless and safe to call concurrently.

Blocks of unequal lengths: a `runs` argument, a list of `(start, stop, n)`,
tiles the first axis of a `(heads, ..., m)` block: heads start..stop-1 hold
n valid entries each, in columns [0, n), and the columns past n are pads.
`attend_position` serves one position's `(kv_heads, group, m)` block over a
cache's `equal_size_runs()`; the three stages, `scaled_dot_scores`,
`softmax_normalize` and `attention_output`, serve a never-evicting chunk's
`(n, kv_heads, group, m)` block, one run per position. Only the calls whose
bits depend on the length run once per run -- the score gemv, the softmax
row sum and the output gemv -- each over exactly its run's n columns, so
every head's results have the bits of a single-head call (in
`attend_position`, a run of one head with one query takes a 2-D `np.dot`
and a 1-D row sum, which have the batched calls' bits). The elementwise
steps (scale, max, exact under -inf pads, exp, divide) run once over the
block, in place in the array returned, which has the first argument's
leading shape. Score and softmax pads come out as exactly 0.0, whatever the
pads held: a NaN or Inf raises only in a valid entry. No function writes
to its input. A block whose runs all span m columns takes the plain path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "AttentionRow",
    "attend_position",
    "scaled_dot_scores",
    "softmax_normalize",
    "cosine_similarity",
    "attention_output",
    "stable_argsort_desc",
]

Runs = Sequence[tuple[int, int, int]]


@dataclass
class AttentionRow:
    """One query's normalized attention scores over the current cache, as the decoder's softmax made them.

    `scores[i]` is the softmax weight the step-`step` query put on the i-th surviving cache entry. Nothing is
    converted or checked: a softmax row is valid by construction, and a trace checks the rows it stores.
    """

    step: int
    scores: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.scores.size


def _padded(runs: Runs | None, heads: int, m: int) -> bool:
    """Whether `runs` leaves pads in a block of `heads` rows of m columns.

    Raises ValueError unless the runs tile the heads in order, each with
    1..m valid columns. None is one run of every head over all m columns.
    """
    if runs is None or (len(runs) == 1 and runs[0] == (0, heads, m)):
        return False
    stop, padded = 0, False
    for a, b, n in runs:
        if a != stop or b <= a or not 1 <= n <= m:
            raise ValueError(f"run {(a, b, n)} does not continue a tiling of {heads} heads of up to {m} entries")
        stop, padded = b, padded or n < m
    if stop != heads:
        raise ValueError(f"runs cover {stop} of {heads} heads")
    return padded


def scaled_dot_scores(q, keys, d_h: int, runs: Runs | None = None) -> np.ndarray:
    """Unnormalized attention weights q.k_i / sqrt(d_h) for each key, in order.

    q is (..., d_h) and keys (..., n, d_h); leading axes broadcast, so one
    call scores a block of heads, each against its own keys, giving (..., n).
    Each head's scores come from the same matrix-vector product a single-head
    call makes, so batching does not change their bits. With `runs` (module
    docstring), q is (heads, ..., d_h) and keys (heads, ..., m, d_h), each
    run is scored against its first n keys only, and the pads are 0.0.

    The 1/sqrt(d_h) factor rescales but never reorders the weights, and the
    same holds for any positive rescaling of the query: argsort is invariant
    under q -> m*q for m > 0.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim == 0 or q.shape[-1] != d_h:
        got = q.shape[0] if q.ndim == 1 else f"shape {q.shape}"
        raise ValueError(f"query has length {got}, expected d_h={d_h}")
    kmat = np.asarray(keys, dtype=np.float64)
    if kmat.ndim < 2 or kmat.shape[-1] != d_h:
        raise ValueError(f"keys have shape {kmat.shape}, expected (..., n, d_h={d_h})")
    if runs is not None and (q.ndim < 2 or kmat.ndim < 3 or q.shape[0] != kmat.shape[0]):
        raise ValueError(f"runs need a head axis on query {q.shape} and keys {kmat.shape}")
    m = kmat.shape[-2]
    if not _padded(runs, kmat.shape[0], m):
        scores = np.matmul(kmat, q[..., None])[..., 0]
    else:
        scores = np.zeros(q.shape[:-1] + (m,))
        for a, b, n in runs:
            np.matmul(kmat[a:b, ..., :n, :], q[a:b, ..., None], out=scores[a:b, ..., :n, None])
    scores /= math.sqrt(d_h)
    return scores


def softmax_normalize(weights, runs: Runs | None = None) -> np.ndarray:
    """Softmax with max-subtraction along the last axis; entries positive, summing to 1.

    Each row of a (..., n) input is normalized on its own, with the same
    reductions a 1-D call makes. Order is preserved exactly (exp is
    monotone), so the argsort of a row equals the argsort of its input.
    With `runs` (module docstring), each row of a (heads, ..., m) block is
    normalized over its run's first n entries, and the pads are 0.0.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 0 or w.shape[-1] == 0:
        raise ValueError("softmax input must be non-empty along its last axis")
    if runs is not None and w.ndim < 2:
        raise ValueError(f"runs need a head axis on the softmax input {w.shape}")
    padded = _padded(runs, w.shape[0], w.shape[-1])
    # a block finite throughout, pads included, needs no look at each run
    if not np.isfinite(w).all() and not (padded and all(np.isfinite(w[a:b, ..., :n]).all() for a, b, n in runs)):
        raise ValueError("softmax input contains NaN or Inf")
    if padded:
        e, m = w.copy(), w.shape[-1]
        for a, b, n in runs:
            if n < m:
                e[a:b, ..., n:] = -np.inf  # ignored by the max, and 0.0 after exp
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        totals = np.empty(e.shape[:-1] + (1,))
        for a, b, n in runs:
            np.add.reduce(e[a:b, ..., :n], axis=-1, keepdims=True, out=totals[a:b])
    else:
        e = w - w.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        totals = np.add.reduce(e, axis=-1, keepdims=True)
    e /= totals
    return e


def cosine_similarity(a, b) -> float:
    """a.b / (|a| |b|), in [-1, 1]. Raises on zero vectors (undefined)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must share one dimension, got {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def attention_output(scores, values, runs: Runs | None = None) -> np.ndarray:
    """Weighted sum of value vectors: sum_i scores[i] * values[i].

    scores (..., n) and values (..., n, d_v) broadcast over leading axes,
    giving (..., d_v): one call aggregates a block of heads. With `runs`
    (module docstring), scores are (heads, ..., m) and values
    (heads, ..., m, d_v), and each run sums over its first n entries only.
    """
    s = np.asarray(scores, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if s.shape[-1] != v.shape[-2]:
        raise ValueError(f"{s.shape[-1]} scores for {v.shape[-2]} values")
    if runs is not None and (s.ndim < 2 or v.ndim < 3 or s.shape[0] != v.shape[0]):
        raise ValueError(f"runs need a head axis on scores {s.shape} and values {v.shape}")
    if not _padded(runs, s.shape[0], s.shape[-1]):
        return np.matmul(s[..., None, :], v)[..., 0, :]
    out = np.empty(s.shape[:-1] + v.shape[-1:])
    for a, b, n in runs:
        np.matmul(s[a:b, ..., None, :n], v[a:b, ..., :n, :], out=out[a:b, ..., None, :])
    return out


def attend_position(q, keys, values, runs: Runs, gain, bias=None) -> tuple[np.ndarray, np.ndarray]:
    """`softmax_normalize(scaled_dot_scores(q, keys, d_h, runs) * gain - bias, runs)` and its `attention_output`,
    with those calls' bits, in one block: q is (heads, group, d_h), keys and values (heads, m, d_h), m the longest n."""
    (heads, group, d_h), m = q.shape, keys.shape[1]
    scores, totals, out = np.zeros((heads, group, m)), np.empty((heads, group, 1)), np.empty(q.shape)
    for a, b, n in runs:
        if group == 1 and b - a == 1:
            np.dot(keys[a, :n], q[a, 0], out=scores[a, 0, :n])
        else:
            np.matmul(keys[a:b, None, :n], q[a:b, :, :, None], out=scores[a:b, :, :n, None])
    scores /= math.sqrt(d_h)
    scores *= gain
    if bias is not None:
        scores -= bias
    if not np.isfinite(scores).all() and not all(np.isfinite(scores[a:b, :, :n]).all() for a, b, n in runs):
        raise ValueError("softmax input contains NaN or Inf")
    for a, b, n in runs:
        if n < m:
            scores[a:b, :, n:] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    for a, b, n in runs:
        if group == 1 and b - a == 1:
            totals[a, 0, 0] = np.add.reduce(scores[a, 0, :n])
        else:
            np.add.reduce(scores[a:b, :, :n], axis=-1, keepdims=True, out=totals[a:b])
    scores /= totals
    for a, b, n in runs:
        if group == 1 and b - a == 1:
            np.dot(scores[a, 0, :n], values[a, :n], out=out[a, 0])
        else:
            np.matmul(scores[a:b, :, None, :n], values[a:b, None, :n], out=out[a:b, :, None])
    return scores, out


def stable_argsort_desc(scores) -> np.ndarray:
    """Indices sorting scores descending; ties broken by lower index first."""
    s = np.asarray(scores, dtype=np.float64)
    return np.argsort(-s, kind="stable")
