"""Record full-cache attention traces; persist, load, and replay them.

A trace captures, for every step t of a full-cache run, each (layer, head)'s
normalized attention row over all t positions plus the head's query vector.
Replaying a trace drives any eviction policy's bookkeeping offline: at each
step the recorded row is restricted to the simulated surviving set.
Importance flags are thresholded on the recorded scores (so replayed
decisions depend on the trace alone, and growing the recency window can only
grow the kept set); the restricted row is renormalized before
score-magnitude policies consume it. Replay approximates a live eviction
run only when eviction would not have changed downstream queries; the
divergence between the two regimes is itself something to measure, not
hide. A live run that keeps the full cache but feeds its rows to shadow
simulators is, by construction, identical to replaying the recorded trace.

File format "CORMTRC1" (all little-endian), version 1:

    offset  size  field
    0       8     magic b"CORMTRC1"
    8       4     u32 version (1)
    12      4     u32 n_layers
    16      4     u32 n_heads
    20      4     u32 n_kv_heads
    24      4     u32 d_model
    28      4     u32 d_h
    32      4     u32 vocab_size
    36      4     u32 pe kind id (0 none, 1 rope, 2 alibi, 3 sinusoidal, 4 learned)
    40      8     f64 rope base (0.0 when unused)
    48      8     u64 model seed
    56      4     u32 n_steps T
    60      4*T   u32 token ids
    ...           payload: for t = 1..T, for each layer, for each head:
                  t f32 scores then d_h f32 query values
    end-8   4     u32 CRC32 of the header region (bytes 0 .. payload start)
    end-4   4     u32 CRC32 of the payload region

Loading verifies, in order: magic, version, total length against the closed
form, then both region checksums. Each failure raises a distinct error type.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import AttentionRow
from .model import ToyTransformer
from .policies import (
    CormGqa,
    Full,
    PolicyConfig,
    apply_policy,
    layer_caches,
    policy_label,
    validate_policy,
)
from .positional import Rope, pe_kind_tag

__all__ = [
    "TraceMeta",
    "AttentionTrace",
    "TraceError",
    "TraceMagicError",
    "TraceVersionError",
    "TraceChecksumError",
    "TraceSizeError",
    "trace_byte_size",
    "record",
    "save",
    "load",
    "PolicySimulator",
    "ReplayResult",
    "replay_policy",
]

MAGIC = b"CORMTRC1"
VERSION = 1
DEFAULT_BYTE_CAP = 512 * 1024 * 1024
_HEAD_FMT = "<8sIIIIIIIIdQI"
_HEAD_FIXED = struct.calcsize(_HEAD_FMT)  # 60

_PE_IDS = {0: "none", 1: "rope", 2: "alibi", 3: "absolute_sinusoidal", 4: "absolute_learned"}
_PE_TAGS = {name: tag for tag, name in _PE_IDS.items()}
_NO_VECTOR = np.zeros(0)  # replayed caches track positions only: keys and values have width 0


class TraceError(Exception):
    """Base class for trace file problems."""


class TraceMagicError(TraceError):
    """The file does not start with the trace magic bytes."""


class TraceVersionError(TraceError):
    """The file's format version is not supported."""


class TraceChecksumError(TraceError):
    """The file is truncated or a region checksum does not match."""


class TraceSizeError(TraceError):
    """Recording was refused because the trace would exceed the byte cap."""


@dataclass(frozen=True)
class TraceMeta:
    n_layers: int
    n_heads: int
    n_kv_heads: int
    d_model: int
    d_h: int
    vocab_size: int
    pe_kind: str
    rope_base: float
    seed: int


@dataclass
class AttentionTrace:
    """Full-cache rows and query vectors of one recorded run."""

    meta: TraceMeta
    tokens: np.ndarray  # (T,) int64
    rows: list[np.ndarray]  # index t-1: (n_layers, n_heads, t) float32
    queries: list[np.ndarray]  # index t-1: (n_layers, n_heads, d_h) float32

    @property
    def n_steps(self) -> int:
        return int(self.tokens.size)

    def row(self, layer: int, head: int, t: int) -> np.ndarray:
        """Step-t scores of one head over all t positions (float32)."""
        return self.rows[t - 1][layer, head]

    def query(self, layer: int, head: int, t: int) -> np.ndarray:
        return self.queries[t - 1][layer, head]

    def check(self) -> None:
        """Raise ValueError naming the first step whose arrays break the layout."""
        m = self.meta
        if not len(self.rows) == len(self.queries) == self.n_steps:
            raise ValueError(
                f"{len(self.rows)} row blocks and {len(self.queries)} query blocks "
                f"for {self.n_steps} tokens"
            )
        for t, (r, q) in enumerate(zip(self.rows, self.queries), start=1):
            if r.shape != (m.n_layers, m.n_heads, t):
                raise ValueError(f"step {t} rows have shape {r.shape}, expected {(m.n_layers, m.n_heads, t)}")
            if q.shape != (m.n_layers, m.n_heads, m.d_h):
                raise ValueError(f"step {t} queries have shape {q.shape}, expected {(m.n_layers, m.n_heads, m.d_h)}")


def trace_byte_size(n_layers: int, n_heads: int, d_h: int, n_steps: int) -> int:
    """Closed-form file size for a trace of the given shape."""
    t = n_steps
    floats = n_layers * n_heads * (t * (t + 1) // 2 + t * d_h)
    return _HEAD_FIXED + 4 * t + 4 * floats + 8


def record(
    model: ToyTransformer, tokens: Sequence[int], byte_cap: int = DEFAULT_BYTE_CAP
) -> AttentionTrace:
    """Run the model with the full cache and capture every row and query.

    Refuses sequences whose serialized trace would exceed `byte_cap`,
    reporting the required size.
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    need = trace_byte_size(c.n_layers, c.n_heads, c.d_h, int(tokens.size))
    if need > byte_cap:
        raise TraceSizeError(
            f"trace of {tokens.size} steps needs {need} bytes, cap is {byte_cap}"
        )
    res = model.run(tokens, Full(), capture=True)
    kind, _ = pe_kind_tag(c.pe)
    meta = TraceMeta(
        n_layers=c.n_layers,
        n_heads=c.n_heads,
        n_kv_heads=c.kv_heads,
        d_model=c.d_model,
        d_h=c.d_h,
        vocab_size=c.vocab_size,
        pe_kind=kind,
        rope_base=c.pe.base if isinstance(c.pe, Rope) else 0.0,
        seed=c.seed,
    )
    return AttentionTrace(meta=meta, tokens=tokens, rows=res.step_rows, queries=res.step_queries)


def save(trace: AttentionTrace, path) -> None:
    """Serialize to the documented binary format (see module docstring)."""
    m = trace.meta
    header = struct.pack(
        _HEAD_FMT,
        MAGIC,
        VERSION,
        m.n_layers,
        m.n_heads,
        m.n_kv_heads,
        m.d_model,
        m.d_h,
        m.vocab_size,
        _PE_TAGS[m.pe_kind],
        m.rope_base,
        m.seed,
        trace.n_steps,
    )
    header += trace.tokens.astype("<u4").tobytes()
    chunks = []
    for rows_t, queries_t in zip(trace.rows, trace.queries):
        block = np.concatenate([rows_t, queries_t], axis=2)  # (L, H, t + d_h)
        chunks.append(block.astype("<f4").tobytes(order="C"))
    payload = b"".join(chunks)
    trailer = struct.pack("<II", zlib.crc32(header), zlib.crc32(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(trailer)


def load(path) -> AttentionTrace:
    """Read a trace file, verifying magic, version, length, and checksums."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:8] != MAGIC:
        raise TraceMagicError(f"not a trace file: magic is {blob[:8]!r}")
    if len(blob) < _HEAD_FIXED:
        raise TraceChecksumError(f"file truncated at {len(blob)} bytes, header needs {_HEAD_FIXED}")
    (_, version, n_layers, n_heads, n_kv, d_model, d_h, vocab, pe_id, rope_base, seed, t_steps) = (
        struct.unpack_from(_HEAD_FMT, blob)
    )
    if version != VERSION:
        raise TraceVersionError(f"unsupported trace version {version}, expected {VERSION}")
    if pe_id not in _PE_IDS:
        raise TraceChecksumError(f"unknown positional-encoding id {pe_id}")
    expect = trace_byte_size(n_layers, n_heads, d_h, t_steps)
    if len(blob) != expect:
        raise TraceChecksumError(f"file is {len(blob)} bytes, metadata implies {expect}")
    hdr_end = _HEAD_FIXED + 4 * t_steps
    payload_end = len(blob) - 8
    stored_hdr, stored_payload = struct.unpack_from("<II", blob, payload_end)
    if zlib.crc32(blob[:hdr_end]) != stored_hdr:
        raise TraceChecksumError(f"header region (bytes 0..{hdr_end}) checksum mismatch")
    if zlib.crc32(blob[hdr_end:payload_end]) != stored_payload:
        raise TraceChecksumError(
            f"payload region (bytes {hdr_end}..{payload_end}) checksum mismatch"
        )
    tokens = np.frombuffer(blob, dtype="<u4", count=t_steps, offset=_HEAD_FIXED).astype(np.int64)
    floats = np.frombuffer(blob[hdr_end:payload_end], dtype="<f4")
    rows: list[np.ndarray] = []
    queries: list[np.ndarray] = []
    offset = 0
    for t in range(1, t_steps + 1):
        count = n_layers * n_heads * (t + d_h)
        block = floats[offset : offset + count].reshape(n_layers, n_heads, t + d_h)
        rows.append(np.ascontiguousarray(block[:, :, :t]))
        queries.append(np.ascontiguousarray(block[:, :, t:]))
        offset += count
    meta = TraceMeta(
        n_layers=n_layers,
        n_heads=n_heads,
        n_kv_heads=n_kv,
        d_model=d_model,
        d_h=d_h,
        vocab_size=vocab,
        pe_kind=_PE_IDS[pe_id],
        rope_base=rope_base,
        seed=seed,
    )
    return AttentionTrace(meta=meta, tokens=tokens, rows=rows, queries=queries)


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


class PolicySimulator:
    """Steps a policy's cache bookkeeping from externally supplied full rows.

    Used both by offline replay (rows come from a trace) and by shadow
    bookkeeping during a live full-cache run (rows come from the decoder).
    Per-head policies simulate one cache per query head and require an
    ungrouped head layout; the grouped recency policy simulates one cache per
    group of `group_size` query heads.
    """

    def __init__(self, policy: PolicyConfig, n_layers: int, n_heads: int, n_kv_heads: int | None = None):
        validate_policy(policy)
        n_kv = n_kv_heads if n_kv_heads is not None else n_heads
        if n_kv < 1 or n_heads % n_kv != 0:
            raise ValueError(f"n_heads={n_heads} not divisible by n_kv_heads={n_kv}")
        model_group = n_heads // n_kv
        if isinstance(policy, CormGqa):
            group = policy.group_size if policy.group_size is not None else model_group
            if group < 1 or n_heads % group != 0:
                raise ValueError(
                    f"policy group size {group} does not divide {n_heads} heads"
                )
        elif isinstance(policy, Full):
            group = model_group
        else:
            if model_group > 1:
                raise ValueError(
                    f"{policy_label(policy)} is a per-head policy and cannot replay "
                    f"a grouped-query trace (group size {model_group})"
                )
            group = 1
        self.policy = policy
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.group_size = group
        self.n_groups = n_heads // group
        self.caches = [layer_caches(self.n_groups, 0, 0) for _ in range(n_layers)]
        self.kept: list[list[list[np.ndarray]]] = [
            [[] for _ in range(self.n_groups)] for _ in range(n_layers)
        ]
        self.compression: list[float] = []
        self.t = 0

    def step(self, t: int, rows_full) -> None:
        """Feed step t's full rows: (n_layers, n_heads, t) array or nested lists.

        Importance flags are thresholded on the recorded scores themselves (a
        surviving entry's recorded score is unchanged by restriction), so the
        flags -- and every mask-driven policy's decisions -- are a pure
        function of the trace. The restricted row is renormalized to a proper
        distribution before score-magnitude policies see it.
        """
        if t != self.t + 1:
            raise ValueError(f"steps must be consecutive: got {t} after {self.t}")
        sizes = 0
        for li in range(self.n_layers):
            for g, cache in enumerate(self.caches[li]):
                cache.append(_NO_VECTOR, _NO_VECTOR, t)
                idx = cache.positions - 1  # recorded rows are 0-indexed by position
                group_rows = []
                group_masks = []
                for hd in range(g * self.group_size, (g + 1) * self.group_size):
                    full = np.asarray(rows_full[li][hd], dtype=np.float64)
                    if full.shape[0] != t:
                        raise ValueError(f"step {t} row has {full.shape[0]} scores")
                    restricted = full[idx]
                    group_masks.append(restricted >= 1.0 / t)
                    group_rows.append(AttentionRow(step=t, scores=restricted / restricted.sum()))
                apply_policy(self.policy, cache, group_rows, t, masks=group_masks)
                self.kept[li][g].append(cache.positions.copy())
                sizes += cache.size
        self.t = t
        self.compression.append(1.0 - sizes / (self.n_layers * self.n_groups * t))


@dataclass
class ReplayResult:
    """Per-step kept sets and the model-mean compression curve of one replay."""

    policy: PolicyConfig
    group_size: int
    kept: list[list[list[np.ndarray]]]  # [layer][group][step-1] -> positions
    compression: np.ndarray  # (T,) float64

    def kept_at(self, layer: int, group: int, t: int) -> np.ndarray:
        return self.kept[layer][group][t - 1]


def replay_policy(trace: AttentionTrace, policy: PolicyConfig) -> ReplayResult:
    """Simulate `policy`'s eviction decisions against a recorded trace.

    At each step the recorded full row is restricted to the simulated
    surviving positions and renormalized to sum to 1 before the policy sees
    it. Returns the kept-set timeline per (layer, group) plus the compression
    curve averaged over layers and groups.
    """
    m = trace.meta
    sim = PolicySimulator(policy, m.n_layers, m.n_heads, m.n_kv_heads)
    for t in range(1, trace.n_steps + 1):
        sim.step(t, trace.rows[t - 1])
    return ReplayResult(
        policy=policy,
        group_size=sim.group_size,
        kept=sim.kept,
        compression=np.asarray(sim.compression),
    )
