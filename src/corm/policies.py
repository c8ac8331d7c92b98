"""KV-cache eviction policies behind one per-head, per-step update interface.

Two families live here:

* Fixed-budget baselines, which cap the cache at a configured size:
  - streaming: keep the first `sink` positions plus the last `recent`.
  - h2o: keep the entries with the highest accumulated attention score
    ("heavy hitters") plus the last `recent`.
  - scissorhands: keep the entries flagged important most often in a recent
    window of steps, plus the last `recent`.
  - tova: keep the entries with the highest score in the current row.

* Budget-free recency-message eviction (corm): each step's query flags which
  cache entries it considers important -- normalized score at least 1/t at
  step t -- and the flags of the last `w` queries form a rolling message.
  Once the message window is full, any entry flagged by none of the last `w`
  queries and older than the last `r` steps is evicted. `gqa_corm` is the
  grouped-query variant: query heads sharing one KV head OR their flags
  together, and an entry must be minor for every head in the group to go.

All updates run once per decode step, after the step's attention output has
been computed, so an eviction affects future steps only. "Recent" always
means absolute positions (the last r generated steps), not cache slots.

Storage: each layer's caches live in one KvBlock, a preallocated
(kv_heads, capacity, d) array pair that doubles when a head fills it; each
(layer, kv-head) cache is a KvCacheState handle on one head of it
(`layer_caches`). Appends write the next free row and evictions compact
survivors to the front, both in place. The recency message is a ring of
mask rows per cache. Heads of one block share its arrays (a growth replaces
them), so blocks, not heads, are the unit that may be updated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .attention import AttentionRow

__all__ = [
    "Full",
    "StreamingLlm",
    "H2O",
    "Scissorhands",
    "Tova",
    "Corm",
    "CormGqa",
    "PolicyConfig",
    "parse_policy",
    "policy_label",
    "KvBlock",
    "KvCacheState",
    "layer_caches",
    "classify_important",
    "corm_update",
    "gqa_corm_update",
    "streaming_update",
    "h2o_update",
    "scissorhands_update",
    "tova_update",
    "apply_policy",
    "compression_rate",
    "mean_compression_rate",
]


# --------------------------------------------------------------------------
# Policy configuration (tagged union)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Full:
    """Keep everything; the identity policy and the accuracy reference."""


@dataclass(frozen=True)
class StreamingLlm:
    sink: int
    recent: int


@dataclass(frozen=True)
class H2O:
    heavy: int
    recent: int


@dataclass(frozen=True)
class Scissorhands:
    budget: int
    recent: int
    window: int


@dataclass(frozen=True)
class Tova:
    budget: int


@dataclass(frozen=True)
class Corm:
    """Recency-message eviction with window `w` and protected recent span `r`.

    threshold="step" compares scores against 1/t with t the absolute decode
    step (the default); "cache" compares against 1/(current cache size), a
    documented alternative that is easier to pass once entries were evicted.
    """

    w: int
    r: int
    threshold: str = "step"


@dataclass(frozen=True)
class CormGqa:
    """Grouped-query variant: entries minor for *all* query heads in the group.

    group_size=None derives the group size from the model or trace it runs
    against; an explicit value must match.
    """

    w: int
    r: int
    group_size: int | None = None
    threshold: str = "step"


PolicyConfig = Union[Full, StreamingLlm, H2O, Scissorhands, Tova, Corm, CormGqa]

_POLICY_NAMES = ("full", "streaming", "h2o", "scissorhands", "tova", "corm", "gqa_corm")


def _parse_pair(arg: str, name: str) -> tuple[int, int]:
    parts = arg.split("+")
    if len(parts) != 2:
        raise ValueError(f"policy {name!r} expects A+B sizes, got {arg!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"policy {name!r} expects integer sizes, got {arg!r}") from None
    return a, b


def parse_policy(text: str) -> PolicyConfig:
    """Parse a policy string in `name[:sizes[...]]` form.

    Sizes use A+B shorthand: `streaming:4+1020` (sink+recent),
    `h2o:768+256` (heavy+recent), `scissorhands:768+256[:window]`
    (window defaults to recent), `corm:256+256` (w+r),
    `gqa_corm:8+8[:group]`, `tova:512`, `full`.
    """
    parts = text.strip().split(":")
    name = parts[0].lower()
    args = parts[1:]
    if name not in _POLICY_NAMES:
        raise ValueError(f"unknown policy {text!r}; valid names: {', '.join(_POLICY_NAMES)}")
    try:
        if name == "full":
            if args:
                raise ValueError("policy 'full' takes no sizes")
            return Full()
        if name == "tova":
            if len(args) != 1:
                raise ValueError("policy 'tova' expects one budget, e.g. tova:512")
            return Tova(budget=int(args[0]))
        if len(args) < 1:
            raise ValueError(f"policy {name!r} expects sizes, e.g. {name}:8+8")
        a, b = _parse_pair(args[0], name)
        if name == "streaming":
            _expect_argc(args, 1, name)
            return StreamingLlm(sink=a, recent=b)
        if name == "h2o":
            _expect_argc(args, 1, name)
            return H2O(heavy=a, recent=b)
        if name == "scissorhands":
            _expect_argc(args, 2, name)
            window = int(args[1]) if len(args) == 2 else b
            return Scissorhands(budget=a, recent=b, window=window)
        if name == "corm":
            _expect_argc(args, 1, name)
            return Corm(w=a, r=b)
        _expect_argc(args, 2, name)
        group = int(args[1]) if len(args) == 2 else None
        return CormGqa(w=a, r=b, group_size=group)
    except ValueError as exc:
        raise ValueError(f"bad policy string {text!r}: {exc}") from None


def _expect_argc(args: list[str], at_most: int, name: str) -> None:
    if len(args) > at_most:
        raise ValueError(f"policy {name!r} takes at most {at_most} ':'-separated arguments")


def policy_label(policy: PolicyConfig) -> str:
    """Canonical short label, also used for output directory names."""
    if isinstance(policy, Full):
        return "full"
    if isinstance(policy, StreamingLlm):
        return f"streaming_{policy.sink}+{policy.recent}"
    if isinstance(policy, H2O):
        return f"h2o_{policy.heavy}+{policy.recent}"
    if isinstance(policy, Scissorhands):
        label = f"scissorhands_{policy.budget}+{policy.recent}"
        if policy.window != policy.recent:
            label += f"_w{policy.window}"
        return label
    if isinstance(policy, Tova):
        return f"tova_{policy.budget}"
    if isinstance(policy, Corm):
        return f"corm_{policy.w}+{policy.r}"
    if isinstance(policy, CormGqa):
        label = f"gqa_corm_{policy.w}+{policy.r}"
        if policy.group_size is not None:
            label += f"_g{policy.group_size}"
        return label
    raise TypeError(f"not a policy config: {policy!r}")


def validate_policy(policy: PolicyConfig) -> None:
    """Reject non-positive sizes in any policy variant."""
    sizes = {
        StreamingLlm: ("sink", "recent"),
        H2O: ("heavy", "recent"),
        Scissorhands: ("budget", "recent", "window"),
        Tova: ("budget",),
        Corm: ("w", "r"),
        CormGqa: ("w", "r"),
    }.get(type(policy), ())
    for name in sizes:
        value = getattr(policy, name)
        if value < 1:
            raise ValueError(f"{policy_label(policy)}: {name} must be >= 1, got {value}")
    if isinstance(policy, (Corm, CormGqa)) and policy.threshold not in ("step", "cache"):
        raise ValueError(f"threshold must be 'step' or 'cache', got {policy.threshold!r}")
    if isinstance(policy, CormGqa) and policy.group_size is not None and policy.group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {policy.group_size}")


# --------------------------------------------------------------------------
# Cache state
# --------------------------------------------------------------------------


INITIAL_CAPACITY = 16  # entries per head before a block first doubles


class KvBlock:
    """Keys and values of every kv head of one layer, in one preallocated block.

    keys (n_heads, capacity, d_k) and values (n_heads, capacity, d_v) hold
    head h's surviving entries in rows [0, sizes[h]), oldest first;
    positions and acc_scores (n_heads, capacity) are row-aligned with them.
    Rows past a head's size are free and never read. When a head fills its
    rows, capacity doubles for the whole block, so appends cost amortized
    O(1) and heads of one layer stay in one contiguous array that attention
    can batch over. Each head is used through a KvCacheState handle (see
    `layer_caches`); the block holds no reference back to its handles, so a
    layer's caches are freed as soon as the last handle goes.
    """

    def __init__(self, n_heads: int, d_k: int, d_v: int):
        self.keys = np.zeros((n_heads, INITIAL_CAPACITY, d_k), dtype=np.float64)
        self.values = np.zeros((n_heads, INITIAL_CAPACITY, d_v), dtype=np.float64)
        self.positions = np.zeros((n_heads, INITIAL_CAPACITY), dtype=np.int64)
        self.acc_scores = np.zeros((n_heads, INITIAL_CAPACITY), dtype=np.float64)
        self.sizes = [0] * n_heads

    @property
    def capacity(self) -> int:
        return self.positions.shape[1]

    def grow(self) -> None:
        """Double the capacity of every head, keeping all rows in place."""
        cap = self.capacity
        for name in ("keys", "values", "positions", "acc_scores"):
            old = getattr(self, name)
            new = np.zeros((old.shape[0], 2 * cap) + old.shape[2:], dtype=old.dtype)
            new[:, :cap] = old
            setattr(self, name, new)

    def equal_size_runs(self) -> list[tuple[int, int]]:
        """[start, stop) ranges of consecutive heads holding equally many entries."""
        sizes = self.sizes
        runs, start = [], 0
        for h in range(1, len(sizes)):
            if sizes[h] != sizes[start]:
                runs.append((start, h))
                start = h
        runs.append((start, len(sizes)))
        return runs


class KvCacheState:
    """Surviving entries of one (layer, kv-head), with policy bookkeeping.

    A handle on one head of a KvBlock: keys, values, positions and
    acc_scores are views of the head's first `size` block rows, so they are
    valid until the next append or keep_only. Row i belongs to the entry
    generated at absolute step positions[i]; `acc_scores` accumulates
    normalized attention per entry.

    `message` holds the most recent importance masks (one bool row per step,
    oldest first), column-aligned with the entries. It is stored as a ring
    of rows whose row count doubles up to the policy's window, so a huge
    window costs only the rows actually recorded. Ring columns past `size`
    are stale; append clears a column before it becomes an entry's, so they
    are never read.
    """

    def __init__(self, block: KvBlock, head: int):
        self.block = block
        self.head = head
        self.step = 0
        self._ring = np.zeros((0, 0), dtype=bool)
        self._ring_rows = 0  # masks recorded, at most the window
        self._ring_next = 0  # slot of the oldest mask once the ring is full

    @classmethod
    def empty(cls, d_k: int = 0, d_v: int = 0) -> "KvCacheState":
        """A cache that owns a one-head block."""
        return layer_caches(1, d_k, d_v)[0]

    @property
    def size(self) -> int:
        return self.block.sizes[self.head]

    @property
    def keys(self) -> np.ndarray:
        return self.block.keys[self.head, : self.size]

    @property
    def values(self) -> np.ndarray:
        return self.block.values[self.head, : self.size]

    @property
    def positions(self) -> np.ndarray:
        return self.block.positions[self.head, : self.size]

    @property
    def acc_scores(self) -> np.ndarray:
        return self.block.acc_scores[self.head, : self.size]

    @property
    def message(self) -> np.ndarray:
        if not self._ring_rows:
            return np.zeros((0, self.size), dtype=bool)
        ring = self._ring[: self._ring_rows, : self.size]
        k = self._ring_next
        return np.concatenate([ring[k:], ring[:k]]) if k else ring

    def append(self, key, value, position: int) -> None:
        """Add the entry generated at `position` in the head's next free row.

        Recorded message rows get a False column for the new entry (a query
        recorded before the entry existed never flagged it).
        """
        if position <= self.step:
            raise ValueError(f"position {position} not after step {self.step}")
        block, h = self.block, self.head
        n = block.sizes[h]
        if n == block.capacity:
            block.grow()
        block.keys[h, n] = key
        block.values[h, n] = value
        block.positions[h, n] = position
        block.acc_scores[h, n] = 0.0
        if self._ring_rows:
            if n == self._ring.shape[1]:
                self._widen_ring()
            else:
                self._ring[:, n] = False
        block.sizes[h] = n + 1
        self.step = position

    def _widen_ring(self) -> None:
        ring = np.zeros((self._ring.shape[0], self.block.capacity), dtype=bool)
        ring[:, : self._ring.shape[1]] = self._ring
        self._ring = ring

    def push_message(self, mask: np.ndarray, window: int) -> np.ndarray:
        """Record one step's importance mask, keeping the newest `window` masks.

        Returns the kept masks as a (rows, size) view in ring order, which is
        oldest first only until the ring wraps: fit for reductions over the
        window, not for reading its order (use `message` for that).
        """
        n = self.size
        if mask.shape != (n,):
            raise ValueError(f"mask has shape {mask.shape} for a cache of {n} entries")
        if self._ring.shape[0] > window:
            raise ValueError(f"message holds {self._ring.shape[0]} rows, window is {window}")
        if self._ring.shape[1] < n:
            self._widen_ring()
        rows = self._ring_rows
        if rows == self._ring.shape[0] == window:
            slot = self._ring_next
            self._ring_next = (slot + 1) % window
        else:
            if rows == self._ring.shape[0]:
                # not wrapped yet: wrapping starts only once `window` rows exist
                ring = np.zeros((min(2 * rows or 1, window), self._ring.shape[1]), dtype=bool)
                ring[:rows] = self._ring
                self._ring = ring
            slot = rows
            self._ring_rows = rows + 1
        self._ring[slot, :n] = mask
        return self._ring[: self._ring_rows, :n]

    def keep_only(self, keep: np.ndarray) -> None:
        """Compact the cache to the entries where `keep` is True, in place.

        Survivors move, in order, to the front rows of the head's block rows;
        message columns move with them.
        """
        n = self.size
        if len(keep) != n:
            raise ValueError(f"keep mask has {len(keep)} flags for a cache of {n} entries")
        idx = np.asarray(keep).nonzero()[0]
        k = idx.size
        if k == n:
            return
        block, h = self.block, self.head
        for arr in (block.keys[h], block.values[h], block.positions[h], block.acc_scores[h]):
            arr[:k] = arr[idx]
        if self._ring_rows:
            ring = self._ring[: self._ring_rows]
            ring[:, :k] = ring[:, idx]
        block.sizes[h] = k

    def check(self) -> None:
        """Raise ValueError naming the first broken layout invariant."""
        block, n = self.block, self.size
        if not 0 <= n <= block.capacity:
            raise ValueError(f"size {n} outside 0..capacity {block.capacity}")
        heads = len(block.sizes)
        for name in ("keys", "values", "positions", "acc_scores"):
            shape = getattr(block, name).shape[:2]
            if shape != (heads, block.capacity):
                raise ValueError(f"block {name} has shape {shape}, expected ({heads}, {block.capacity})")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("positions must strictly increase")
        if self._ring_rows > self._ring.shape[0]:
            raise ValueError(f"message counts {self._ring_rows} rows in a ring of {self._ring.shape[0]}")
        if self._ring_rows and self._ring.shape[1] < n:
            raise ValueError(f"message ring has {self._ring.shape[1]} columns for {n} entries")
        if self.message.shape != (self._ring_rows, n):
            raise ValueError(f"message exposes shape {self.message.shape}, expected ({self._ring_rows}, {n})")


def layer_caches(n_heads: int, d_k: int, d_v: int) -> list[KvCacheState]:
    """Caches of every kv head of one layer, sharing one fresh block."""
    block = KvBlock(n_heads, d_k, d_v)
    return [KvCacheState(block, h) for h in range(n_heads)]


def _require_current_row(cache: KvCacheState, row: AttentionRow, t: int) -> None:
    if row.step != t:
        raise ValueError(f"row is for step {row.step}, update is for step {t}")
    if cache.step != t:
        raise ValueError(f"cache is at step {cache.step}, update is for step {t}")
    if len(row) != cache.size:
        raise ValueError(f"row has {len(row)} scores for a cache of {cache.size} entries")


# --------------------------------------------------------------------------
# Importance classification and per-policy updates
# --------------------------------------------------------------------------


def classify_important(row: AttentionRow, t: int, threshold: str = "step") -> np.ndarray:
    """Boolean mask of entries whose score is at least the mean-score threshold.

    threshold="step" uses 1/t with t the absolute decode step; "cache" uses
    1/(row length), i.e. the mean over the surviving entries only. The
    comparison is >= (a score exactly at the average counts as important).
    """
    if t != row.step:
        raise ValueError(f"t={t} does not match row.step={row.step}")
    if threshold == "step":
        cut = 1.0 / t
    elif threshold == "cache":
        cut = 1.0 / len(row)
    else:
        raise ValueError(f"threshold must be 'step' or 'cache', got {threshold!r}")
    return row.scores >= cut


def _corm_core(cache: KvCacheState, mask: np.ndarray, w: int, r: int, t: int) -> KvCacheState:
    message = cache.push_message(mask, w)
    if message.shape[0] < w:
        return cache
    keep = np.logical_or.reduce(message, axis=0) | (cache.positions > t - r)
    cache.keep_only(keep)
    return cache


def corm_update(
    cache: KvCacheState,
    row: AttentionRow,
    w: int,
    r: int,
    t: int,
    threshold: str = "step",
    mask: np.ndarray | None = None,
) -> KvCacheState:
    """One recency-message eviction step.

    Appends the step's importance mask to the rolling message (trimmed to the
    newest w rows). Nothing is evicted until w masks exist; afterwards the
    kept set is exactly {flagged important in >= 1 of the last w masks} union
    {entries from the last r steps}. Message columns are pruned with the same
    index set as keys/values.

    A precomputed `mask` overrides the row-derived one; trace replay uses
    this to flag against the originally recorded scores.
    """
    if w < 1 or r < 1:
        raise ValueError(f"window and recent sizes must be >= 1, got w={w}, r={r}")
    _require_current_row(cache, row, t)
    if mask is None:
        mask = classify_important(row, t, threshold)
    return _corm_core(cache, mask, w, r, t)


def gqa_corm_update(
    cache: KvCacheState,
    rows: Sequence[AttentionRow],
    w: int,
    r: int,
    t: int,
    threshold: str = "step",
    masks: Sequence[np.ndarray] | None = None,
) -> KvCacheState:
    """Recency-message eviction on a KV cache shared by a group of query heads.

    The step's mask is the OR of the group's per-head masks: an entry must be
    minor for every head in the group to be flagged minor.
    """
    if w < 1 or r < 1:
        raise ValueError(f"window and recent sizes must be >= 1, got w={w}, r={r}")
    if not rows:
        raise ValueError("gqa_corm_update needs at least one query-head row")
    if masks is not None and len(masks) != len(rows):
        raise ValueError(f"{len(masks)} masks for {len(rows)} rows")
    mask = np.zeros(cache.size, dtype=bool)
    for i, row in enumerate(rows):
        _require_current_row(cache, row, t)
        mask |= masks[i] if masks is not None else classify_important(row, t, threshold)
    return _corm_core(cache, mask, w, r, t)


def streaming_update(
    cache: KvCacheState, row: AttentionRow, sink: int, recent: int, t: int
) -> KvCacheState:
    """Keep the first `sink` positions and the last `recent`; evict the rest."""
    _require_current_row(cache, row, t)
    keep = (cache.positions <= sink) | (cache.positions > t - recent)
    cache.keep_only(keep)
    return cache


def _evict_lowest(cache: KvCacheState, ranking: np.ndarray, candidates: np.ndarray, n_evict: int) -> None:
    """Drop the n_evict candidate entries with the lowest ranking value.

    Ties go to the lower original position; candidate indices are in position
    order already, so a stable sort on the ranking achieves that.
    """
    cand_idx = np.flatnonzero(candidates)
    order = np.lexsort((cache.positions[cand_idx], ranking[cand_idx]))
    drop = cand_idx[order[:n_evict]]
    keep = np.ones(cache.size, dtype=bool)
    keep[drop] = False
    cache.keep_only(keep)


def h2o_update(
    cache: KvCacheState, row: AttentionRow, heavy: int, recent: int, t: int
) -> KvCacheState:
    """Accumulated-score eviction: keep heavy hitters plus the recent span.

    Every entry accumulates the normalized score each step's query gives it
    (raw, never rescaled after evictions). When the cache exceeds
    heavy+recent, the non-recent entries with the lowest accumulated score
    are evicted, lowest original position first on ties.
    """
    _require_current_row(cache, row, t)
    acc = cache.acc_scores
    acc += row.scores
    excess = cache.size - (heavy + recent)
    if excess > 0:
        non_recent = cache.positions <= t - recent
        _evict_lowest(cache, cache.acc_scores, non_recent, min(excess, int(non_recent.sum())))
    return cache


def scissorhands_update(
    cache: KvCacheState,
    row: AttentionRow,
    budget: int,
    window: int,
    recent: int,
    t: int,
    mask: np.ndarray | None = None,
) -> KvCacheState:
    """Windowed importance-count eviction.

    Counts, per entry, how many of the last `window` steps flagged it
    important (same >= 1/t mask as the recency policies). When the cache
    exceeds budget+recent, non-recent entries with the lowest counts go
    first, lowest original position first on ties.
    """
    _require_current_row(cache, row, t)
    if mask is None:
        mask = classify_important(row, t)
    message = cache.push_message(mask, window)
    excess = cache.size - (budget + recent)
    if excess > 0:
        counts = message.sum(axis=0).astype(np.float64)
        non_recent = cache.positions <= t - recent
        _evict_lowest(cache, counts, non_recent, min(excess, int(non_recent.sum())))
    return cache


def tova_update(cache: KvCacheState, row: AttentionRow, budget: int, t: int) -> KvCacheState:
    """Evict the entries with the lowest score in the current row once over budget."""
    _require_current_row(cache, row, t)
    excess = cache.size - budget
    if excess > 0:
        _evict_lowest(cache, row.scores, np.ones(cache.size, dtype=bool), excess)
    return cache


def apply_policy(
    policy: PolicyConfig,
    cache: KvCacheState,
    rows: Sequence[AttentionRow],
    t: int,
    masks: Sequence[np.ndarray] | None = None,
) -> KvCacheState:
    """Run one step of `policy` on one kv-head cache.

    `rows` holds one AttentionRow per query head attending to this cache --
    a single row except under grouped-query attention. Only the grouped
    recency policy accepts groups larger than one; every other policy is
    defined per head. Optional `masks` (one per row) override the row-derived
    importance flags for the mask-driven policies.
    """
    if isinstance(policy, CormGqa):
        if policy.group_size is not None and policy.group_size != len(rows):
            raise ValueError(
                f"policy group size {policy.group_size} does not match "
                f"{len(rows)} query heads per kv head"
            )
        return gqa_corm_update(cache, rows, policy.w, policy.r, t, policy.threshold, masks=masks)
    if isinstance(policy, Full):
        return cache
    if len(rows) != 1:
        raise ValueError(
            f"{policy_label(policy)} is a per-head policy; it cannot drive a "
            f"kv head shared by {len(rows)} query heads"
        )
    row = rows[0]
    mask = masks[0] if masks is not None else None
    if isinstance(policy, Corm):
        return corm_update(cache, row, policy.w, policy.r, t, policy.threshold, mask=mask)
    if isinstance(policy, StreamingLlm):
        return streaming_update(cache, row, policy.sink, policy.recent, t)
    if isinstance(policy, H2O):
        return h2o_update(cache, row, policy.heavy, policy.recent, t)
    if isinstance(policy, Scissorhands):
        return scissorhands_update(
            cache, row, policy.budget, policy.window, policy.recent, t, mask=mask
        )
    if isinstance(policy, Tova):
        return tova_update(cache, row, policy.budget, t)
    raise TypeError(f"not a policy config: {policy!r}")


# --------------------------------------------------------------------------
# Compression accounting
# --------------------------------------------------------------------------


def compression_rate(state: KvCacheState, t: int) -> float:
    """1 - (cache size / t): the fraction of generated entries evicted so far."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return 1.0 - state.size / t


def mean_compression_rate(caches: Sequence[Sequence[KvCacheState]], t: int) -> float:
    """Model-wide rate: mean over every (layer, kv-head) cache."""
    rates = [compression_rate(c, t) for layer in caches for c in layer]
    return float(np.mean(rates))
