"""Record full-cache attention traces; persist, load, and replay them.

A trace holds, for every step t of a full-cache run, each (layer, head)'s
normalized attention row over all t positions plus the head's query vector.
An `AttentionTrace` is valid by construction: building one checks its
header fields, its tokens against the vocabulary, every step's row and
query shapes, and every step's rows (finite, within [0, 1], summing to 1
in float64), once, and stores rows and queries as read-only arrays. Both
ways to get a trace, `record` and `load`, build it through that check, so
nothing downstream checks a row again.

Replaying a trace (`replay_policy`) steps a `PolicySimulator`, which drives
a policy's bookkeeping offline: at each step the recorded row is restricted
to the simulated surviving set. The simulator keeps no history of kept
sets, only its live cache block and the compression curve. The block works
in place, one row per step, so replay needs O(caches x steps) memory beyond
the trace.
The restricted row is renormalized only for the policies that read score
magnitudes (`Policy.reads_magnitudes`); the others flag the recorded scores,
so replayed decisions depend on the trace alone, and growing the recency
window can only grow the kept set. Replay approximates a live eviction run
only when eviction would not have changed downstream queries; the
divergence between the two regimes is itself something to measure, not hide.

Recording rounds rows and queries to float32, the file's storage precision,
so a recorded trace equals the same trace saved and loaded.

File format "CORMTRC1" (all little-endian), version 1. The header fields
after magic and version are `TraceMeta`'s, in declaration order, with the
pe kind written as its wire id; so a new header field is one `TraceMeta`
field plus one `_HEAD_FMT` code:

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

Loading verifies, in order: magic, header length, version, pe kind id,
total length against the closed form, then both region checksums. A bad
magic raises `TraceMagicError`, a bad version `TraceVersionError` and each
other failure `TraceChecksumError` naming what failed. Last, the trace must
hold at least one step, and the trace it builds runs the construction
checks, so a damaged trace fails at load and neither replay nor analysis
consumes it. Loaded rows and queries are read-only views of the file's
bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .attention import check_score_rows
from .model import ToyTransformer
from .policies import Full, KvCacheState, Policy, apply_policy
from .positional import PE_KINDS

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
    "replay_policy",
]

MAGIC = b"CORMTRC1"
VERSION = 1
DEFAULT_BYTE_CAP = 512 * 1024 * 1024
# magic, version, then TraceMeta's fields in declaration order (pe_kind as its wire id), then n_steps
_HEAD_FMT = "<8sIIIIIIIIdQI"
_HEAD_FIXED = struct.calcsize(_HEAD_FMT)  # 60


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

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_h"):
            if getattr(self, name) < 1:
                raise ValueError(f"trace {name} must be >= 1, got {getattr(self, name)}")
        if self.n_kv_heads < 1 or self.n_heads % self.n_kv_heads != 0:
            raise ValueError(f"trace n_kv_heads must be >= 1 and divide n_heads={self.n_heads}, got {self.n_kv_heads}")
        if self.d_model != self.n_heads * self.d_h:
            raise ValueError(
                f"trace d_model must equal n_heads * d_h = {self.n_heads * self.d_h}, got {self.d_model}"
            )
        if self.vocab_size < 2:
            raise ValueError(f"trace vocab_size must be >= 2, got {self.vocab_size}")
        for f, code in zip(fields(self), _HEAD_FMT.removeprefix("<8sI")):  # the codes after magic and version
            bits, value = 8 * struct.calcsize(code), getattr(self, f.name)
            if f.type == "int" and not 0 <= value < 2**bits:
                raise ValueError(f"trace {f.name} must lie in [0, 2**{bits}), got {value}")


def _read_only(a) -> np.ndarray:
    """`a` as a read-only array that no writeable array shares memory with.

    An array that is writeable, or a view of a writeable array, is copied;
    a read-only array over immutable memory (a loaded file's bytes) is not.
    """
    a = np.asarray(a)
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if a.flags.writeable or owner.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AttentionTrace:
    """Full-cache rows and query vectors of one recorded run, valid by construction.

    Building a trace raises ValueError naming the first broken field, token
    or step: the header fields (`TraceMeta`), a token outside the
    vocabulary, a row or query block of the wrong shape, a step whose
    rows are not normalized (`check_score_rows`, once per step), or an
    all-zero query vector, whose cosine similarity is undefined. The trace
    then stores tokens, rows and queries as read-only arrays, copying any
    that were writeable or views of a writeable array, so it stays valid
    and replay and analysis read its rows unchecked.
    """

    meta: TraceMeta
    tokens: np.ndarray  # (T,) int64
    rows: tuple[np.ndarray, ...]  # index t-1: (n_layers, n_heads, t), float32 when recorded or loaded
    queries: tuple[np.ndarray, ...]  # index t-1: (n_layers, n_heads, d_h)

    def __post_init__(self) -> None:
        m = self.meta
        tokens = _read_only(np.asarray(self.tokens, dtype=np.int64))
        rows = tuple(_read_only(r) for r in self.rows)
        queries = tuple(_read_only(q) for q in self.queries)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("trace tokens must be a non-empty 1-D sequence")
        if not len(rows) == len(queries) == tokens.size:
            raise ValueError(f"{len(rows)} row blocks and {len(queries)} query blocks for {tokens.size} tokens")
        if not (tokens.min() >= 0 and tokens.max() < m.vocab_size):
            bad = int(tokens[(tokens < 0) | (tokens >= m.vocab_size)][0])
            raise ValueError(f"trace token {bad} outside vocab_size {m.vocab_size}")
        for t, (r, q) in enumerate(zip(rows, queries), start=1):
            if r.shape != (m.n_layers, m.n_heads, t):
                raise ValueError(f"step {t} rows have shape {r.shape}, expected {(m.n_layers, m.n_heads, t)}")
            if q.shape != (m.n_layers, m.n_heads, m.d_h):
                raise ValueError(f"step {t} queries have shape {q.shape}, expected {(m.n_layers, m.n_heads, m.d_h)}")
            check_score_rows(r.astype(np.float64))
            nonzero = q.any(axis=2)
            if not nonzero.all():
                layer, head = np.argwhere(~nonzero)[0]
                raise ValueError(f"step {t}, layer {layer}, head {head}: zero query vector (cosine undefined)")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "queries", queries)

    @property
    def n_steps(self) -> int:
        return int(self.tokens.size)


def trace_byte_size(n_layers: int, n_heads: int, d_h: int, n_steps: int) -> int:
    """Closed-form file size for a trace of the given shape."""
    t = n_steps
    floats = n_layers * n_heads * (t * (t + 1) // 2 + t * d_h)
    return _HEAD_FIXED + 4 * t + 4 * floats + 8


def record(
    model: ToyTransformer, tokens: Sequence[int], byte_cap: int = DEFAULT_BYTE_CAP
) -> AttentionTrace:
    """Decode `tokens` with the full cache, keeping every step's rows and queries.

    Rows and queries are rounded to float32, the file's storage precision.
    Refuses sequences whose serialized trace would exceed `byte_cap`,
    reporting the required size.
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("token sequence must be non-empty")
    need = trace_byte_size(c.n_layers, c.n_heads, c.d_h, int(tokens.size))
    if need > byte_cap:
        raise TraceSizeError(
            f"trace of {tokens.size} steps needs {need} bytes, cap is {byte_cap}"
        )
    state = model.init_state(Full())
    rows: list[np.ndarray] = []
    queries: list[np.ndarray] = []
    for tok in tokens:
        sr = model.decode_step(state, int(tok))
        # one conversion of every row straight to float32, the rounding astype makes
        rows_t = np.array([[row.scores for row in layer] for layer in sr.rows], dtype=np.float32)
        queries_t = sr.queries.astype(np.float32)
        # nothing else holds these fresh arrays, so read-only they need no copy in the trace
        rows_t.flags.writeable = queries_t.flags.writeable = False
        rows.append(rows_t)
        queries.append(queries_t)
    meta = TraceMeta(
        n_layers=c.n_layers,
        n_heads=c.n_heads,
        n_kv_heads=c.kv_heads,
        d_model=c.d_model,
        d_h=c.d_h,
        vocab_size=c.vocab_size,
        pe_kind=c.pe.kind,
        rope_base=c.pe.base,
        seed=c.seed,
    )
    return AttentionTrace(meta=meta, tokens=tokens, rows=rows, queries=queries)


def save(trace: AttentionTrace, path) -> None:
    """Write the binary format (module docstring); the trace was checked when it was built."""
    values = asdict(trace.meta) | {"pe_kind": PE_KINDS[trace.meta.pe_kind].wire_id}
    header = struct.pack(_HEAD_FMT, MAGIC, VERSION, *values.values(), trace.n_steps)
    header += trace.tokens.astype("<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        crc = 0  # the payload is written and checksummed one step at a time, never held whole
        for rows_t, queries_t in zip(trace.rows, trace.queries):
            block = np.concatenate([rows_t, queries_t], axis=2)  # (L, H, t + d_h)
            chunk = block.astype("<f4").tobytes(order="C")
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<II", zlib.crc32(header), crc))


def load(path) -> AttentionTrace:
    """Read a trace file, verifying magic, version, length, checksums and rows.

    The returned rows and queries are read-only views of the file's bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:8] != MAGIC:
        raise TraceMagicError(f"not a trace file: magic is {blob[:8]!r}")
    if len(blob) < _HEAD_FIXED:
        raise TraceChecksumError(f"file truncated at {len(blob)} bytes, header needs {_HEAD_FIXED}")
    _, version, *values, t_steps = struct.unpack_from(_HEAD_FMT, blob)
    n_layers, n_heads, d_h, pe_id = values[0], values[1], values[4], values[6]  # TraceMeta's order
    if version != VERSION:
        raise TraceVersionError(f"unsupported trace version {version}, expected {VERSION}")
    pe_names = {cls.wire_id: kind for kind, cls in PE_KINDS.items()}
    if pe_id not in pe_names:
        raise TraceChecksumError(f"unknown positional-encoding id {pe_id}")
    expect = trace_byte_size(n_layers, n_heads, d_h, t_steps)
    if len(blob) != expect:
        raise TraceChecksumError(f"file is {len(blob)} bytes, metadata implies {expect}")
    hdr_end = _HEAD_FIXED + 4 * t_steps
    payload_end = len(blob) - 8
    stored_hdr, stored_payload = struct.unpack_from("<II", blob, payload_end)
    view = memoryview(blob)
    if zlib.crc32(view[:hdr_end]) != stored_hdr:
        raise TraceChecksumError(f"header region (bytes 0..{hdr_end}) checksum mismatch")
    if zlib.crc32(view[hdr_end:payload_end]) != stored_payload:
        raise TraceChecksumError(
            f"payload region (bytes {hdr_end}..{payload_end}) checksum mismatch"
        )
    if t_steps == 0:
        raise TraceError("trace holds no steps")
    values[6] = pe_names[pe_id]
    meta = TraceMeta(*values)
    tokens = np.frombuffer(blob, dtype="<u4", count=t_steps, offset=_HEAD_FIXED).astype(np.int64)
    floats = np.frombuffer(blob, dtype="<f4", count=(payload_end - hdr_end) // 4, offset=hdr_end)
    rows: list[np.ndarray] = []
    queries: list[np.ndarray] = []
    offset = 0
    for t in range(1, t_steps + 1):
        count = n_layers * n_heads * (t + d_h)
        block = floats[offset : offset + count].reshape(n_layers, n_heads, t + d_h)
        rows.append(block[:, :, :t])
        queries.append(block[:, :, t:])
        offset += count
    return AttentionTrace(meta=meta, tokens=tokens, rows=rows, queries=queries)


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


class PolicySimulator:
    """Steps a policy's cache bookkeeping through a trace's recorded rows.

    Each `step` feeds the trace's next step. Per-head policies simulate one
    cache per query head and require an ungrouped head layout; the grouped
    recency policy simulates one cache per group of `group_size` query
    heads. All n_layers * n_groups caches are the heads of one block,
    layer-major, so each step is one policy update; they track positions
    only (keys and values have width 0). The block works in place: row i of
    every cache is position i + 1 or free, as in a recorded row. No history
    is kept: after step t, `cache.head_positions(layer * n_groups + group)`
    is the positions cache (layer, group) holds.
    """

    def __init__(self, policy: Policy, trace: AttentionTrace):
        m = trace.meta
        group = policy.group_size_for(m.n_heads, m.n_kv_heads)
        self.policy = policy
        self.trace = trace
        self.group_size = group
        self.n_groups = m.n_heads // group
        self.cache = KvCacheState(m.n_layers * self.n_groups, 0, in_place=True)
        self._no_vector = np.zeros((m.n_layers * self.n_groups, 0))
        self._rates: list[float] = []

    @property
    def compression(self) -> np.ndarray:
        """(T,) float64: the model-mean compression rate after each step."""
        return np.asarray(self._rates)

    def step(self) -> None:
        """Feed the trace's next step t = cache.step + 1.

        The trace checked its rows when it was built, so they are not
        checked again. A recorded row lines up with the block's rows, so
        restricting it to the kept entries zeroes its free rows, in float64.
        A restricted row with no mass left (its kept entries sum to 0 or
        less) is an error under every policy. Only policies that read score
        magnitudes (`Policy.reads_magnitudes`) see the restricted rows
        renormalized; the others flag them as recorded (restriction leaves
        a kept entry's score unchanged).
        """
        cache = self.cache
        t = cache.step + 1
        if t > self.trace.n_steps:
            raise ValueError(f"the trace holds {self.trace.n_steps} steps, so there is no step {t}")
        cache.append(self._no_vector, self._no_vector)
        group = self.group_size
        held = cache.held[:, None, :]
        # a float64 zero keeps the rows float64, so flags compare against a float64 1/t
        restricted = np.where(held, self.trace.rows[t - 1].reshape(cache.n_heads, group, t), np.float64(0.0))
        normalize = self.policy.reads_magnitudes
        if normalize or restricted.min() < 0.0:
            held = held.repeat(group, axis=1)
            mass = totals = np.empty((cache.n_heads, group, 1))
            for a, b, n in cache.equal_size_runs():
                # sums over exactly each row's entries, in order: zeros between them would change the bits
                totals[a:b, :, 0] = restricted[a:b][held[a:b]].reshape(b - a, group, n).sum(axis=2)
        else:
            # a row of scores >= 0 sums to more than 0 exactly when its max does
            mass = restricted.max(axis=2, keepdims=True)
        if not mass.min() > 0.0:
            layer = int(np.argmax(mass.min(axis=(1, 2)) <= 0.0)) // self.n_groups
            raise ValueError(f"step {t}, layer {layer}: a row restricted to the kept entries sums to 0")
        apply_policy(self.policy, cache, restricted / totals if normalize else restricted)
        self._rates.append(1.0 - cache.size / (cache.n_heads * t))


def replay_policy(trace: AttentionTrace, policy: Policy) -> PolicySimulator:
    """Simulate `policy`'s eviction decisions against a recorded trace.

    At each step the recorded full row is restricted to the simulated
    surviving positions, and renormalized to sum to 1 for the policies that
    read score magnitudes (`PolicySimulator.step`). Returns the simulator
    stepped through the whole trace: its final caches and its compression
    curve averaged over layers and groups.
    """
    sim = PolicySimulator(policy, trace)
    for _ in range(trace.n_steps):
        sim.step()
    return sim
