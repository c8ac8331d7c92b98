"""Positional encoding families: rotary, linear-bias (ALiBi), and absolute.

Each family is exposed both as scalar/single-vector operations (the documented
contract) and as vectorized helpers used by the model's batched reference
forward pass. Positions are 0-based here; the model maps its 1-based step t to
position t-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .schema import check_fields

__all__ = [
    "Rope",
    "Alibi",
    "AbsoluteSinusoidal",
    "AbsoluteLearned",
    "NoPositional",
    "PeConfig",
    "PE_KINDS",
    "pe_from_dict",
    "pe_to_dict",
    "apply_rope",
    "rope_apply_many",
    "alibi_bias",
    "alibi_slopes",
    "absolute_sinusoidal",
    "sinusoidal_table",
]


@dataclass(frozen=True)
class Rope:
    """Rotary encoding: pairwise 2-D rotation of query/key vectors by position."""

    base: float = 10000.0


@dataclass(frozen=True)
class Alibi:
    """Linear distance bias added to attention logits, one slope per head.

    slopes=None selects the standard geometric construction (see
    `alibi_slopes`); an explicit tuple must match the model's head count.
    """

    slopes: tuple[float, ...] | None = None


@dataclass(frozen=True)
class AbsoluteSinusoidal:
    """Classic interleaved sin/cos embedding added to the token embedding."""


@dataclass(frozen=True)
class AbsoluteLearned:
    """Seeded random position table added to the token embedding."""


@dataclass(frozen=True)
class NoPositional:
    """No positional signal at all."""


PeConfig = Union[Rope, Alibi, AbsoluteSinusoidal, AbsoluteLearned, NoPositional]

# kind name in JSON -> (config class, wire id in weight and trace files)
PE_KINDS = {
    "none": (NoPositional, 0),
    "rope": (Rope, 1),
    "alibi": (Alibi, 2),
    "absolute_sinusoidal": (AbsoluteSinusoidal, 3),
    "absolute_learned": (AbsoluteLearned, 4),
}
_PE_FIELDS = {"rope": {"base": (float, False)}, "alibi": {"slopes": (list, True, float)}}


def pe_from_dict(d: dict) -> PeConfig:
    """Build a PE config from its JSON form, e.g. {"kind": "rope", "base": 1e4}."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in PE_KINDS:
        raise ValueError(f"unknown positional encoding {kind!r}; valid: {sorted(PE_KINDS)}")
    check_fields(d, {"kind": (str, False), **_PE_FIELDS.get(kind, {})}, f"{kind} positional encoding")
    if kind == "rope":
        return Rope(base=float(d.get("base", 10000.0)))
    if kind == "alibi":
        slopes = d.get("slopes")
        return Alibi(slopes=tuple(float(s) for s in slopes) if slopes is not None else None)
    return PE_KINDS[kind][0]()


def pe_to_dict(pe: PeConfig) -> dict:
    out: dict = {"kind": pe_kind_tag(pe)[0]}
    if isinstance(pe, Rope):
        out["base"] = pe.base
    elif isinstance(pe, Alibi) and pe.slopes is not None:
        out["slopes"] = list(pe.slopes)
    return out


def pe_kind_tag(pe: PeConfig) -> tuple[str, int]:
    """(name, wire id) pair used by model/trace serialization."""
    for name, (cls, wire_id) in PE_KINDS.items():
        if type(pe) is cls:
            return name, wire_id
    raise TypeError(f"not a positional encoding config: {pe!r}")


def _rope_angles(d_h: int, position: float, base: float) -> np.ndarray:
    j = np.arange(d_h // 2, dtype=np.float64)
    return position * base ** (-2.0 * j / d_h)


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
    theta = _rope_angles(v.size, float(position), base)
    c, s = np.cos(theta), np.sin(theta)
    pairs = v.reshape(-1, 2)
    out = np.empty_like(pairs)
    out[:, 0] = pairs[:, 0] * c - pairs[:, 1] * s
    out[:, 1] = pairs[:, 0] * s + pairs[:, 1] * c
    return out.reshape(-1)


def rope_apply_many(x: np.ndarray, positions: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Vectorized rotary encoding: x is (..., n, d_h), positions is (n,)."""
    x = np.asarray(x, dtype=np.float64)
    d_h = x.shape[-1]
    if d_h % 2 != 0:
        raise ValueError(f"rotary encoding needs an even head dimension, got {d_h}")
    j = np.arange(d_h // 2, dtype=np.float64)
    theta = np.asarray(positions, dtype=np.float64)[:, None] * base ** (-2.0 * j / d_h)
    c, s = np.cos(theta), np.sin(theta)  # (n, d_h/2)
    shape = x.shape[:-1] + (d_h // 2, 2)
    pairs = x.reshape(shape)
    out = np.empty_like(pairs)
    out[..., 0] = pairs[..., 0] * c - pairs[..., 1] * s
    out[..., 1] = pairs[..., 0] * s + pairs[..., 1] * c
    return out.reshape(x.shape)


def alibi_bias(head_slope: float, query_pos: int, key_pos: int) -> float:
    """-slope * (query_pos - key_pos), added to unnormalized attention weights."""
    if key_pos > query_pos:
        raise ValueError(f"key position {key_pos} is after query position {query_pos}")
    return -head_slope * (query_pos - key_pos)


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


def absolute_sinusoidal(position: int, d_model: int) -> np.ndarray:
    """Interleaved [sin(p*f_0), cos(p*f_0), sin(p*f_1), ...] with f_j = base^(-2j/d)."""
    if position < 0:
        raise ValueError(f"position must be non-negative, got {position}")
    return sinusoidal_table(position + 1, d_model)[position]


def sinusoidal_table(n_positions: int, d_model: int) -> np.ndarray:
    """(n_positions, d_model) table of interleaved sinusoidal embeddings."""
    if d_model % 2 != 0:
        raise ValueError(f"sinusoidal embedding needs even d_model, got {d_model}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    j = np.arange(d_model // 2, dtype=np.float64)
    angles = pos * 10000.0 ** (-2.0 * j / d_model)  # (n, d/2)
    table = np.empty((n_positions, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table
