"""Sparsity, query-similarity, overlap, and divergence measurements.

Everything here is a pure function over an immutable trace or over run
outputs. The file writers live at the bottom; README "Output files" lists
every file's schema. Floats are written by repr(), so a file's bytes repeat
from run to run on one machine. Their float bits follow the BLAS kernel and
numpy's SIMD dispatch, which one numpy wheel picks per CPU: KL values from
`output_divergence` differ in their last digits between kernels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .attention import cosine_similarity
from .policies import classify_important
from .trace import AttentionTrace

__all__ = [
    "SparsityProfile",
    "sparsity_profile",
    "query_similarity_map",
    "recent_similarity_fraction",
    "importance_overlap",
    "overlap_similarity_samples",
    "spearman_rank_correlation",
    "Divergence",
    "output_divergence",
    "write_csv",
    "write_similarity_csv",
    "write_json",
]


# --------------------------------------------------------------------------
# Sparsity
# --------------------------------------------------------------------------


@dataclass
class SparsityProfile:
    """Mean fraction of keys scoring at least 1/t, per head and per layer.

    A smaller important-key fraction means a sparser head; sparsity is the
    complementary fraction. Values are means over steps; aggregate over texts
    by averaging profiles.
    """

    per_head: np.ndarray  # (n_layers, n_heads)
    per_layer: np.ndarray  # (n_layers,), mean over heads


def sparsity_profile(trace: AttentionTrace) -> SparsityProfile:
    """Important-key fraction profile of a recorded trace."""
    acc = np.zeros(trace.rows[0].shape[:2], dtype=np.float64)
    for t, block in enumerate(trace.rows, start=1):
        acc += classify_important(block.astype(np.float64), t).mean(axis=2)
    per_head = acc / len(trace.rows)
    return SparsityProfile(per_head=per_head, per_layer=per_head.mean(axis=1))


# --------------------------------------------------------------------------
# Query similarity
# --------------------------------------------------------------------------


def query_similarity_map(trace: AttentionTrace, layer: int, head: int) -> np.ndarray:
    """Strictly lower-triangular cosine map of one head's query vectors.

    Entry (i, j) for j < i (0-based) is the cosine similarity between the
    queries of steps i+1 and j+1; the diagonal and upper triangle are zero.
    """
    q = np.stack([queries[layer, head] for queries in trace.queries]).astype(np.float64)
    qn = q / np.linalg.norm(q, axis=1)[:, None]  # a trace holds no zero query
    sim = qn @ qn.T
    # zero the diagonal and upper triangle in place: np.tril would copy the map
    np.copyto(sim, 0.0, where=~np.tri(len(q), k=-1, dtype=bool))
    return sim


def recent_similarity_fraction(sim_map: np.ndarray, k: int) -> float:
    """Fraction of queries whose most similar predecessor is at most k steps back.

    Rows with no predecessor (the first query) are excluded. Argmax ties go to
    the earlier predecessor.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = sim_map.shape[0]
    if n < 2:
        raise ValueError("similarity map needs at least 2 queries")
    hits = 0
    for i in range(1, n):
        j = int(np.argmax(sim_map[i, :i]))
        if i - j <= k:
            hits += 1
    return hits / (n - 1)


def importance_overlap(trace: AttentionTrace, layer: int, head: int, i: int, j: int) -> float:
    """Jaccard overlap of the important-key masks of queries i and j (1-based).

    Masks are thresholded at 1/i and 1/j respectively and compared over the
    common prefix of min(i, j) - 1 keys. Two empty masks count as full overlap.
    """
    t_max = trace.n_steps
    if not (1 <= i <= t_max and 1 <= j <= t_max):
        raise ValueError(f"steps ({i}, {j}) outside trace of {t_max} steps")
    m = min(i, j) - 1
    if m == 0:
        return 1.0
    mask_i = classify_important(trace.rows[i - 1][layer, head].astype(np.float64)[:m], i)
    mask_j = classify_important(trace.rows[j - 1][layer, head].astype(np.float64)[:m], j)
    union = int(np.sum(mask_i | mask_j))
    if union == 0:
        return 1.0
    return float(np.sum(mask_i & mask_j)) / union


def overlap_similarity_samples(
    trace: AttentionTrace, layer: int, head: int, n_pairs: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (query cosine, mask Jaccard) pairs for one head.

    Draws n_pairs random step pairs 2 <= j < i <= T and returns the two
    aligned arrays, ready for rank correlation.
    """
    t_max = trace.n_steps
    if t_max < 3:
        raise ValueError("need at least 3 steps to sample pairs")
    rng = np.random.Generator(np.random.PCG64(seed))
    cos = np.empty(n_pairs)
    jac = np.empty(n_pairs)
    for n in range(n_pairs):
        i = int(rng.integers(3, t_max + 1))
        j = int(rng.integers(2, i))
        cos[n] = cosine_similarity(trace.queries[i - 1][layer, head], trace.queries[j - 1][layer, head])
        jac[n] = importance_overlap(trace, layer, head, i, j)
    return cos, jac


def _ranks(x: np.ndarray) -> np.ndarray:
    # 1-based ranks; a run of c equal values ending at rank s shares their mean, s - (c - 1) / 2
    _, run, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[run]


def spearman_rank_correlation(x, y) -> float:
    """Spearman's rho with average ranks for ties; nan if either side is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D samples of size >= 2")
    rx, ry = _ranks(x), _ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


# --------------------------------------------------------------------------
# Output divergence
# --------------------------------------------------------------------------


@dataclass
class Divergence:
    """Per-step comparison of two logit sequences over the same inputs."""

    top1_match: np.ndarray  # (T,) bool
    kl: np.ndarray  # (T,) float64, KL(reference || other)


def output_divergence(logits_ref: np.ndarray, logits_other: np.ndarray) -> Divergence:
    """Top-1 agreement and mean KL(reference || other) of per-step logits."""
    a = np.asarray(logits_ref, dtype=np.float64)
    b = np.asarray(logits_other, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"logit shapes differ: {a.shape} vs {b.shape}")
    match = np.argmax(a, axis=1) == np.argmax(b, axis=1)
    la = a - a.max(axis=1, keepdims=True)
    lb = b - b.max(axis=1, keepdims=True)
    logp = la - np.log(np.exp(la).sum(axis=1, keepdims=True))
    logq = lb - np.log(np.exp(lb).sum(axis=1, keepdims=True))
    p = np.exp(logp)
    kl = np.sum(p * (logp - logq), axis=1)
    return Divergence(top1_match=match, kl=np.maximum(kl, 0.0))


# --------------------------------------------------------------------------
# File emitters
# --------------------------------------------------------------------------


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """One line per row, its cells written by `str` and joined by commas.

    Cells are Python ints, floats and strings, so `.tolist()` numpy data
    first: a Python float's `str` is its `repr`. A header is the first row.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_similarity_csv(path, sim_map: np.ndarray) -> None:
    """Dense lower-triangular grid; row i holds similarities to queries 0..i-1.

    Comma-separated floats, one map row per line and no header, upper
    triangle written as empty cells.
    """
    with open(path, "w", encoding="utf-8") as fh:
        n = sim_map.shape[0]
        for i in range(n):
            # repr of the row's Python floats, as write_csv writes each one
            fh.write(",".join([*map(repr, sim_map[i, :i].tolist()), *[""] * (n - i)]) + "\n")


def write_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
