"""Record full-cache attention traces; persist, load, and replay them.

A trace holds, for every step t of a full-cache run, each (layer, head)'s
normalized attention row over all t positions plus the head's query vector.
An `AttentionTrace` is its file's payload, one read-only float32 array
whose per-step views are its rows and queries, so a trace replays the same
before and after a save and load. It is valid by construction: building one
checks its header fields, its tokens against the vocabulary, the payload's
dtype, rank and length, and every step's rows (finite, within [0, 1],
summing to 1 in float64) and queries (not all zero), once. Rows and queries
are checked span by span in one exact pass, a few reductions per span,
which decides every step and words every error as a step-by-step check
would. `record` and `load` both build a trace through it, so nothing
downstream checks a row again.

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

Recording decodes in chunks of `RECORD_CHUNK` tokens and rounds rows and
queries to float32, the file's storage precision, writing them straight
into one preallocated payload; a chunk's float64 rows are freed before the
next chunk is decoded. Saving writes that payload as it is; loading builds
the trace over the file's bytes.

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
consumes it. A loaded trace's payload is a read-only view of the file's
bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .model import StepResult, ToyTransformer, token_ids
from .policies import Full, KvCacheState, Policy, apply_policy
from .positional import PE_KINDS, PeConfig, Rope

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
# Tokens per `decode_step` call in `record`. On a 2-CPU x86-64 box with
# single-threaded OpenBLAS, recording a 512-token trace of a 2L/4H/d64 model
# (decode and construction check) took a median 113, 58, 50, 46 and 44 ms in
# chunks of 1, 8, 16, 32 and 64 (30 interleaved records over 5 prompts). A
# chunk holds its positions' float64 rows until they are copied out, so the
# record phase's peak RSS grows with it. In a fresh interpreter, recording
# that trace peaked at 43.1, 43.3, 43.5-43.8, 44.7 and 46.6 MB in those
# chunks; replaying it under five policies peaked at 35.4-35.5 MB and
# analyzing it at 43.7-44.0 MB; one trace/replay/analyze pass peaked at
# 44.8-44.9, 45.2-45.3, 45.3-45.4, 45.0 and 46.6 MB. 32 is the largest chunk
# whose record phase stays below the pass's peak.
RECORD_CHUNK = 32
# Float64 bytes one span of the construction check (`_check_span`) converts at once
# (`_check_spans`). On the box above, 256 KiB spans checked the 512-token trace in 2.9-3.2 ms,
# against 6.6-7.7 ms step by step; 1 MiB spans took 2.4 ms but raised record's tracemalloc peak
# on a 150-step trace by 0.46 MB, above what decoding one chunk holds.
CHECK_SPAN_BYTES = 1 << 18
SUM_TOL = 1e-6  # how far a normalized row's sum may lie from 1
RANGE_TOL = 1e-12  # how far a normalized row's entry may lie outside [0, 1]
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
        if self.pe_kind not in PE_KINDS:
            raise ValueError(f"unknown trace pe_kind {self.pe_kind!r}; valid: {sorted(PE_KINDS)}")
        rope = self.pe_kind == Rope.kind  # the one family that stores a base; the others store PeConfig.base
        if not (0.0 < self.rope_base < np.inf if rope else self.rope_base == PeConfig.base):
            must = "finite and > 0" if rope else PeConfig.base
            raise ValueError(f"trace rope_base must be {must} under pe_kind {self.pe_kind!r}, got {self.rope_base}")
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
    """Full-cache rows and query vectors of one recorded run: its file's payload, valid by construction.

    Building a trace raises ValueError naming the first broken field, token
    or step: the header fields (`TraceMeta`), a token outside the
    vocabulary, a payload that is not a C-contiguous `<f4` array of the
    file's length (nothing is converted), a step whose rows are not
    normalized, or an all-zero query vector, whose cosine similarity is
    undefined. Steps are checked a span at a time in one exact pass
    (`_check_span`), which raises the error, and names the step, that a
    step-by-step check would find first. The trace stores tokens and
    payload read-only, copying either if it was writeable or a view of a
    writeable array, so it stays valid and replay and analysis read its
    rows, the payload's per-step views, unchecked.
    """

    meta: TraceMeta
    tokens: np.ndarray  # (T,) int64
    payload: np.ndarray  # 1-D <f4, the file's payload: per step, layer and head, t scores then d_h query values
    # per-step float32 views of the payload, index t-1: rows (n_layers, n_heads, t), queries (n_layers, n_heads, d_h)
    rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    queries: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.meta
        tokens = _read_only(token_ids(self.tokens))
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("trace tokens must be a non-empty 1-D sequence")
        if not (tokens.min() >= 0 and tokens.max() < m.vocab_size):
            bad = int(tokens[(tokens < 0) | (tokens >= m.vocab_size)][0])
            raise ValueError(f"trace token {bad} outside vocab_size {m.vocab_size}")
        p, need = self.payload, _payload_floats(m.n_layers, m.n_heads, m.d_h, tokens.size)
        if not (isinstance(p, np.ndarray) and p.dtype == "<f4" and p.shape == (need,) and p.flags.c_contiguous):
            got = type(p).__name__
            if isinstance(p, np.ndarray):
                got = f"{p.dtype.str} {p.shape}{'' if p.flags.c_contiguous else ' strided'}"
            raise ValueError(f"trace payload must be {need} C-contiguous <f4 values for {tokens.size} steps, got {got}")
        payload = _read_only(p)
        blocks = list(_step_blocks(payload, m.n_layers, m.n_heads, m.d_h, tokens.size))
        heads = m.n_layers * m.n_heads
        with np.errstate(invalid="ignore"):  # a row holding both infinities sums to NaN, which the range check refuses
            for first, stop in _check_spans(heads, m.d_h, tokens.size):
                span = payload[_payload_floats(heads, 1, m.d_h, first - 1) : _payload_floats(heads, 1, m.d_h, stop - 1)]
                _check_span(span, first, stop, m.n_heads, heads, m.d_h)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "rows", tuple(block[:, :, :t] for t, block in enumerate(blocks, start=1)))
        object.__setattr__(self, "queries", tuple(block[:, :, t:] for t, block in enumerate(blocks, start=1)))

    @property
    def n_steps(self) -> int:
        return int(self.tokens.size)


def _check_spans(heads: int, d_h: int, n_steps: int) -> Iterator[tuple[int, int]]:
    """Yield (first, stop): steps first..stop-1 make one span, the spans tiling 1..n_steps in order.

    A span holds as many steps as fit in `CHECK_SPAN_BYTES` once converted
    to float64, and at least one.
    """
    first, size = 1, 0
    for t in range(1, n_steps + 1):
        step = 8 * heads * (t + d_h)
        if size and size + step > CHECK_SPAN_BYTES:
            yield first, t
            first, size = t, 0
        size += step
    yield first, n_steps + 1


def _span_reductions(span: np.ndarray, first: int, stop: int, heads: int, d_h: int) -> tuple[np.ndarray, ...]:
    """Each row's min, max and sum and each query's min and max over a payload span, steps first..stop-1.

    Each is one `reduceat` over the span in float64, in payload order; a row's sum has `sum(axis=-1)`'s bits.
    """
    lengths = np.repeat(np.arange(first, stop), heads)  # each row's length, in payload order
    starts = np.cumsum(lengths + d_h) - (lengths + d_h) + 1  # each row's start in x, behind a leading slot
    x = np.concatenate([np.zeros(1), span])  # the span in float64, behind a leading slot
    edges = np.stack([starts, starts + lengths], axis=1).ravel()  # each row's start, then its query's
    lo, hi = np.minimum.reduceat(x, edges), np.maximum.reduceat(x, edges)
    # `reduceat` adds a segment's rest pairwise to its first value, `sum(axis=-1)` a whole row pairwise to 0,
    # and the last bits differ for about one peaked row in three: each row's sum starts at a zero just ahead
    x[starts - 1] = 0.0
    edges[0::2] -= 1
    return lo[0::2], hi[0::2], np.add.reduceat(x, edges)[0::2], lo[1::2], hi[1::2]


def _check_span(span: np.ndarray, first: int, stop: int, n_heads: int, heads: int, d_h: int) -> None:
    """Raise ValueError unless each step of a payload span, steps first..stop-1, has normalized rows, nonzero queries.

    The reductions are exact, so the span passes exactly when each step would. Otherwise the first failing step
    raises its first failing check's error: a row outside [0, 1] by `RANGE_TOL` ("NaN or Inf" if one is not
    finite), then the row sum farthest from 1 by more than `SUM_TOL`, then the first all-zero query.
    """
    lo, hi, sums, q_lo, q_hi = _span_reductions(span, first, stop, heads, d_h)
    zero_query = (q_lo == 0.0) & (q_hi == 0.0)  # a NaN, like `any`, counts as nonzero
    in_range = lo.min() >= -RANGE_TOL and hi.max() <= 1.0 + RANGE_TOL
    if in_range and sums.min() >= 1.0 - SUM_TOL and sums.max() <= 1.0 + SUM_TOL and not zero_query.any():
        return
    lo, hi, sums, zero_query = (a.reshape(stop - first, heads) for a in (lo, hi, sums, zero_query))
    out_of_range = ~((lo >= -RANGE_TOL) & (hi <= 1.0 + RANGE_TOL))
    off = ~((sums >= 1.0 - SUM_TOL) & (sums <= 1.0 + SUM_TOL))
    i = int(np.argmax((out_of_range | off | zero_query).any(axis=1)))  # the first failing step, first + i
    if out_of_range[i].any():
        finite = np.isfinite(lo[i]).all() and np.isfinite(hi[i]).all()
        raise ValueError("scores must lie in [0, 1]" if finite else "scores contain NaN or Inf")
    if off[i].any():
        total = float(sums[i, np.argmax(np.abs(sums[i] - 1.0))])
        raise ValueError(f"scores sum to {total}, expected 1 within {SUM_TOL}")
    layer, head = divmod(int(np.argmax(zero_query[i])), n_heads)
    raise ValueError(f"step {first + i}, layer {layer}, head {head}: zero query vector (cosine undefined)")


def _payload_floats(n_layers: int, n_heads: int, d_h: int, n_steps: int) -> int:
    """Float32 values in the payload of a trace of the given shape: each step's rows and queries."""
    t = n_steps
    return n_layers * n_heads * (t * (t + 1) // 2 + t * d_h)


def trace_byte_size(n_layers: int, n_heads: int, d_h: int, n_steps: int) -> int:
    """Closed-form file size for a trace of the given shape."""
    return _HEAD_FIXED + 4 * n_steps + 4 * _payload_floats(n_layers, n_heads, d_h, n_steps) + 8


def record(
    model: ToyTransformer, tokens: Sequence[int], byte_cap: int = DEFAULT_BYTE_CAP
) -> AttentionTrace:
    """Decode `tokens` with the full cache, keeping every step's rows and queries.

    Refuses sequences whose serialized trace would exceed `byte_cap`,
    reporting the required size, before it allocates anything. Then it
    allocates the file's float32 payload once and decodes through
    `decode_step` in chunks of `RECORD_CHUNK` tokens, writing each
    position's rows and queries into the payload, rounded to float32 as
    `astype` rounds. The trace keeps that payload without a copy.
    """
    c = model.config
    tokens = token_ids(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("token sequence must be non-empty")
    need = trace_byte_size(c.n_layers, c.n_heads, c.d_h, int(tokens.size))
    if need > byte_cap:
        raise TraceSizeError(
            f"trace of {tokens.size} steps needs {need} bytes, cap is {byte_cap}"
        )
    payload = np.empty(_payload_floats(c.n_layers, c.n_heads, c.d_h, tokens.size), dtype="<f4")
    blocks = _step_blocks(payload, c.n_layers, c.n_heads, c.d_h, tokens.size)
    state = model.init_state(Full())
    for a in range(0, tokens.size, RECORD_CHUNK):
        _write_chunk(model.decode_step(state, tokens[a : a + RECORD_CHUNK]), blocks, c.d_h)
    # read-only, so the trace keeps it without a copy
    payload.flags.writeable = False
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
    return AttentionTrace(meta, tokens, payload)


def _write_chunk(sr: StepResult, blocks: Iterator[np.ndarray], d_h: int) -> None:
    """Write a decoded chunk's rows and queries into its positions' payload blocks, the next ones of `blocks`.

    The chunk's float64 rows are views of its per-layer score blocks, which
    only this frame holds: they are freed when it returns, before the next
    chunk is decoded.
    """
    # the blocks last, so the chunk's end stops zip before it takes the next chunk's first block
    for step_rows, step_queries, block in zip(sr.rows, sr.queries, blocks):
        t = block.shape[2] - d_h
        for li, layer in enumerate(step_rows):
            for hd, row in enumerate(layer):
                block[li, hd, :t] = row.scores  # float64 to float32, the rounding astype makes
        block[:, :, t:] = step_queries


def _step_blocks(payload: np.ndarray, n_layers: int, n_heads: int, d_h: int, n_steps: int) -> Iterator[np.ndarray]:
    """Yield each step's (n_layers, n_heads, t + d_h) block of a float32 payload in file order, t = 1..n_steps.

    A block holds step t's rows in its first t columns and its queries in
    the last d_h; every block is a view of `payload`.
    """
    offset = 0
    for t in range(1, n_steps + 1):
        count = n_layers * n_heads * (t + d_h)
        yield payload[offset : offset + count].reshape(n_layers, n_heads, t + d_h)
        offset += count


def save(trace: AttentionTrace, path) -> None:
    """Write the binary format (module docstring); the trace was checked when it was built."""
    values = asdict(trace.meta) | {"pe_kind": PE_KINDS[trace.meta.pe_kind].wire_id}
    header = struct.pack(_HEAD_FMT, MAGIC, VERSION, *values.values(), trace.n_steps)
    header += trace.tokens.astype("<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(trace.payload)
        fh.write(struct.pack("<II", zlib.crc32(header), zlib.crc32(trace.payload)))


def load(path) -> AttentionTrace:
    """Read a trace file, verifying magic, version, length, checksums and rows.

    The returned trace's payload is a read-only view of the file's bytes.
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
    payload = np.frombuffer(blob, dtype="<f4", count=(payload_end - hdr_end) // 4, offset=hdr_end)
    return AttentionTrace(meta, tokens, payload)


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
