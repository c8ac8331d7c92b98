"""Pure attention math shared by the model, the eviction policies, and analysis.

All score arithmetic is done in float64 regardless of how model weights are
stored: eviction decisions compare normalized scores against a 1/t threshold,
which is sensitive near equality, so this module never drops to float32.
Every function here is stateless and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "AttentionRow",
    "check_score_rows",
    "scaled_dot_scores",
    "softmax_normalize",
    "cosine_similarity",
    "attention_output",
    "stable_argsort_desc",
]

SUM_TOL = 1e-6


@dataclass
class AttentionRow:
    """One query's normalized attention scores over the current cache.

    `scores[i]` is the softmax weight the step-`step` query put on the i-th
    surviving cache entry. Scores are validated on construction: finite,
    within [0, 1], and summing to 1 within 1e-6. `validated=True` skips the
    value checks for scores valid by construction, such as a softmax row.
    """

    step: int
    scores: np.ndarray = field(repr=False)
    validated: InitVar[bool] = False

    def __post_init__(self, validated: bool) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D sequence")
        if not validated:
            check_score_rows(self.scores)

    def __len__(self) -> int:
        return self.scores.size


def check_score_rows(scores: np.ndarray) -> None:
    """Raise ValueError unless every row of `scores` (..., n) is a normalized row.

    A row is valid when its entries are finite and within [0, 1] and they
    sum to 1 within 1e-6. One call checks a whole block of rows.
    """
    # NaN fails both comparisons and an infinity fails one, so valid blocks
    # pass on min and max alone; the error path then names the fault.
    if not (scores.min() >= -1e-12 and scores.max() <= 1.0 + 1e-12):
        if not np.isfinite(scores).all():
            raise ValueError("scores contain NaN or Inf")
        raise ValueError("scores must lie in [0, 1]")
    totals = scores.sum(axis=-1)
    if not (totals.min() >= 1.0 - SUM_TOL and totals.max() <= 1.0 + SUM_TOL):
        totals = np.ravel(totals)
        total = float(totals[np.argmax(np.abs(totals - 1.0))])
        raise ValueError(f"scores sum to {total}, expected 1 within {SUM_TOL}")


def scaled_dot_scores(q, keys, d_h: int) -> np.ndarray:
    """Unnormalized attention weights q.k_i / sqrt(d_h) for each key, in order.

    q is (..., d_h) and keys (..., n, d_h); leading axes broadcast, so one
    call scores a block of heads, each against its own keys, giving (..., n).
    Each head's scores come from the same matrix-vector product a single-head
    call makes, so batching does not change their bits.

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
    return np.matmul(kmat, q[..., None])[..., 0] / math.sqrt(d_h)


def softmax_normalize(weights) -> np.ndarray:
    """Softmax with max-subtraction along the last axis; entries positive, summing to 1.

    Each row of a (..., n) input is normalized on its own, with the same
    reductions a 1-D call makes. Order is preserved exactly (exp is
    monotone), so the argsort of a row equals the argsort of its input.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 0 or w.shape[-1] == 0:
        raise ValueError("softmax input must be non-empty along its last axis")
    if not np.isfinite(w).all():
        raise ValueError("softmax input contains NaN or Inf")
    e = np.exp(w - w.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def attention_output(scores, values) -> np.ndarray:
    """Weighted sum of value vectors: sum_i scores[i] * values[i].

    scores (..., n) and values (..., n, d_v) broadcast over leading axes,
    giving (..., d_v): one call aggregates a block of heads.
    """
    s = np.asarray(scores, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if s.shape[-1] != v.shape[-2]:
        raise ValueError(f"{s.shape[-1]} scores for {v.shape[-2]} values")
    return np.matmul(s[..., None, :], v)[..., 0, :]


def stable_argsort_desc(scores) -> np.ndarray:
    """Indices sorting scores descending; ties broken by lower index first."""
    s = np.asarray(scores, dtype=np.float64)
    return np.argsort(-s, kind="stable")
