"""Positional encoding families: rotary, linear-bias (ALiBi), absolute, and none.

Each family is a `PeConfig` subclass registered in `PE_KINDS`; it owns all
that the model and the trace format know of it, and its array work is done
by the module-level functions below. Positions are 0-based here; the model
maps its 1-based step t to position t-1. Embedding rows are made per call,
for the positions asked for: no table is grown or kept beyond the drawn one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .schema import from_json, to_json

__all__ = [
    "PeConfig",
    "Rope",
    "Alibi",
    "AbsoluteSinusoidal",
    "AbsoluteLearned",
    "NoPositional",
    "PE_KINDS",
    "apply_rope",
    "rope_apply_many",
    "alibi_slopes",
    "sinusoidal_table",
]


class PeConfig:
    """Protocol of the positional encodings; each subclass is a frozen dataclass.

    Subclasses define `kind` (the JSON name and registry key) and `wire_id`
    (the trace header's id); their JSON fields besides "kind" are their
    dataclass fields (`corm.schema`). The hooks below default to a family
    that adds no positional signal; each family overrides its own.
    """

    kind: ClassVar[str]
    wire_id: ClassVar[int]
    # the rotary base that trace headers store, 0.0 unless the family rotates
    base: ClassVar[float] = 0.0

    @staticmethod
    def from_dict(d: dict) -> PeConfig:
        """The family that `d`'s kind names, built from its other fields, e.g. {"kind": "rope", "base": 1e4}."""
        kind = d.get("kind") if isinstance(d, dict) else None
        if not isinstance(kind, str) or kind not in PE_KINDS:
            raise ValueError(f"unknown positional encoding {kind!r}; valid: {sorted(PE_KINDS)}")
        return from_json(PE_KINDS[kind], {k: v for k, v in d.items() if k != "kind"}, f"{kind} positional encoding")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **to_json(self)}

    def check(self, n_heads: int, d_model: int) -> None:
        """Raise ValueError when the family cannot serve a model of this shape."""

    def drawn_rows(self, max_positions: int) -> int:
        """Rows of the position table drawn with the model's weights."""
        return 0

    def embedding_rows(self, table: np.ndarray, start: int, stop: int) -> np.ndarray | None:
        """The rows added at positions start..stop-1, from the model's drawn `table`; or None."""
        return None

    def rotate(self, q: np.ndarray, k: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
        """Queries (n, heads, d_h) and keys (n, kv_heads, d_h), row i rotated by `positions[i]` of an (n, 1) column."""
        return q, k

    def head_slopes(self, n_heads: int) -> np.ndarray | None:
        """Per-head slopes of the linear distance bias on logits, or None for no bias."""
        return None


@dataclass(frozen=True)
class Rope(PeConfig):
    """Rotary encoding: pairwise 2-D rotation of query/key vectors by position."""

    kind = "rope"
    wire_id = 1
    base: float = 10000.0

    def check(self, n_heads: int, d_model: int) -> None:
        if (d_model // n_heads) % 2 != 0:
            raise ValueError(f"rotary encoding needs even head dimension, got d_h={d_model // n_heads}")
        if not (math.isfinite(self.base) and self.base > 0):
            raise ValueError(f"rope base must be finite and > 0, got {self.base}")

    def rotate(self, q: np.ndarray, k: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
        # one call for queries and keys together
        qk = rope_apply_many(np.concatenate([q, k], axis=1), positions, self.base)
        return qk[:, : q.shape[1]], qk[:, q.shape[1] :]


@dataclass(frozen=True)
class Alibi(PeConfig):
    """Linear distance bias added to attention logits, one slope per head.

    slopes=None selects the standard geometric construction (see
    `alibi_slopes`); an explicit tuple must match the model's head count.
    """

    kind = "alibi"
    wire_id = 2
    slopes: tuple[float, ...] | None = None

    def check(self, n_heads: int, d_model: int) -> None:
        if self.slopes is not None and len(self.slopes) != n_heads:
            raise ValueError(f"{len(self.slopes)} alibi slopes for {n_heads} heads")
        if self.slopes is not None and not all(math.isfinite(s) for s in self.slopes):
            raise ValueError(f"alibi slopes must be finite, got {list(self.slopes)}")

    def head_slopes(self, n_heads: int) -> np.ndarray:
        return np.asarray(self.slopes, dtype=np.float64) if self.slopes is not None else alibi_slopes(n_heads)


@dataclass(frozen=True)
class AbsoluteSinusoidal(PeConfig):
    """Classic interleaved sin/cos embedding added to the token embedding."""

    kind = "absolute_sinusoidal"
    wire_id = 3

    def check(self, n_heads: int, d_model: int) -> None:
        if d_model % 2 != 0:
            raise ValueError(f"sinusoidal encoding needs even d_model, got {d_model}")

    def embedding_rows(self, table: np.ndarray, start: int, stop: int) -> np.ndarray:
        return sinusoidal_table(stop - start, table.shape[1], start)


@dataclass(frozen=True)
class AbsoluteLearned(PeConfig):
    """Seeded random position table added to the token embedding."""

    kind = "absolute_learned"
    wire_id = 4

    def drawn_rows(self, max_positions: int) -> int:
        return max_positions

    def embedding_rows(self, table: np.ndarray, start: int, stop: int) -> np.ndarray:
        if stop > len(table):
            # names the first step with no row, as a token-by-token decode meets it
            raise ValueError(f"step {len(table) + 1} exceeds the learned position table ({len(table)})")
        return table[start:stop]


@dataclass(frozen=True)
class NoPositional(PeConfig):
    """No positional signal at all."""

    kind = "none"
    wire_id = 0


PE_KINDS: dict[str, type[PeConfig]] = {
    cls.kind: cls for cls in (NoPositional, Rope, Alibi, AbsoluteSinusoidal, AbsoluteLearned)
}


def apply_rope(v, position: int, base: float = 10000.0) -> np.ndarray:
    """Rotate dimension pairs (2j, 2j+1) of v by angle position * base^(-2j/d_h).

    Norm-preserving; position 0 is the identity. Pairs adjacent dimensions
    (not split-half); relative dot products depend only on position offsets.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size % 2 != 0:
        raise ValueError(f"rotary encoding needs an even head dimension, got {v.shape}")
    if position < 0:
        raise ValueError(f"position must be non-negative, got {position}")
    theta = float(position) * base ** (-2.0 * np.arange(v.size // 2, dtype=np.float64) / v.size)
    c, s = np.cos(theta), np.sin(theta)
    pairs = v.reshape(-1, 2)
    out = np.empty_like(pairs)
    out[:, 0] = pairs[:, 0] * c - pairs[:, 1] * s
    out[:, 1] = pairs[:, 0] * s + pairs[:, 1] * c
    return out.reshape(-1)


@functools.lru_cache(maxsize=32)
def _rope_frequencies(base: float, d_h: int) -> np.ndarray:
    """base^(-2j/d_h) for j < d_h/2, computed once per (base, d_h); read-only."""
    j = np.arange(d_h // 2, dtype=np.float64)
    freqs = base ** (-2.0 * j / d_h)
    freqs.flags.writeable = False
    return freqs


def rope_apply_many(x: np.ndarray, positions, base: float = 10000.0) -> np.ndarray:
    """Vectorized rotary encoding: x is (..., n, d_h), positions is (n,), or (1,) for one shared position.

    Positions broadcast against x's axes before the last, so x (n, heads, d_h)
    with positions (n, 1) rotates every head of row i by positions[i].
    """
    x = np.asarray(x, dtype=np.float64)
    d_h = x.shape[-1]
    if d_h % 2 != 0:
        raise ValueError(f"rotary encoding needs an even head dimension, got {d_h}")
    theta = np.asarray(positions, dtype=np.float64)[:, None] * _rope_frequencies(base, d_h)
    c, s = np.cos(theta), np.sin(theta)  # (n, d_h/2)
    shape = x.shape[:-1] + (d_h // 2, 2)
    pairs = x.reshape(shape)
    out = np.empty_like(pairs)
    out[..., 0] = pairs[..., 0] * c - pairs[..., 1] * s
    out[..., 1] = pairs[..., 0] * s + pairs[..., 1] * c
    return out.reshape(x.shape)


def alibi_slopes(n_heads: int) -> np.ndarray:
    """Standard geometric head slopes: 2^(-8/n), 2^(-16/n), ... for power-of-two n.

    Non-power-of-two head counts interleave the next power's slopes, matching
    the usual construction.
    """
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")

    def power_of_2(n: int) -> list[float]:
        start = 2.0 ** (-(2.0 ** -(math.log2(n) - 3)))
        return [start ** (i + 1) for i in range(n)]

    if math.log2(n_heads).is_integer():
        return np.array(power_of_2(n_heads), dtype=np.float64)
    closest = 2 ** math.floor(math.log2(n_heads))
    extra = alibi_slopes(2 * closest)[0::2][: n_heads - closest]
    return np.concatenate([power_of_2(closest), extra])


def sinusoidal_table(n_positions: int, d_model: int, start: int = 0) -> np.ndarray:
    """(n_positions, d_model) interleaved sinusoidal embeddings of positions start, start + 1, ...

    Row i is [sin(p*f_0), cos(p*f_0), sin(p*f_1), ...], p = start + i, f_j = 10000^(-2j/d_model).
    """
    if d_model % 2 != 0:
        raise ValueError(f"sinusoidal embedding needs even d_model, got {d_model}")
    pos = np.arange(start, start + n_positions, dtype=np.float64)[:, None]
    j = np.arange(d_model // 2, dtype=np.float64)
    angles = pos * 10000.0 ** (-2.0 * j / d_model)  # (n, d/2)
    table = np.empty((n_positions, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table
