"""KV-cache eviction policies behind one protocol, and the caches they prune.

Each policy is a frozen dataclass that owns everything about itself: its
`name` in policy strings, `parse` of the arguments after the name, its
`label`, its size checks (`__post_init__`, so an invalid config cannot be
built), how many query heads one of its caches may serve
(`group_size_for`), and its per-step update (`step`). `POLICIES` registers
the classes by name: `parse_policy` looks a class up there and
`apply_policy` calls the policy's `step`, so adding a policy is one class
plus one registry entry.

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
  step t (`classify_important`) -- and the flags of the last `w` queries
  form a rolling message. Once the message window is full, any entry
  flagged by none of the last `w` queries and older than the last `r` steps
  is evicted. `gqa_corm` is the grouped-query variant: query heads sharing
  one KV head OR their flags together, and an entry must be minor for every
  head in the group to go.

All updates run once per decode step, after the step's attention output has
been computed, so an eviction affects future steps only. "Recent" always
means absolute positions (the last r generated steps), not cache slots.

Storage: each layer's caches live in one KvBlock, whose per-entry arrays
(keys, values, positions, acc_scores and the recency message, each
(kv_heads, capacity, ...)) are preallocated and double when a head fills
them; each (layer, kv-head) cache is a KvCacheState handle on one head of it
(`layer_caches`) that holds nothing but its block, head and step. Appends
write the next free row and evictions compact survivors to the front, both
in place and in every per-entry array alike. Heads of one block share its
arrays (a growth replaces them), so blocks, not heads, are the unit that may
be updated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "Policy",
    "Full",
    "StreamingLlm",
    "H2O",
    "Scissorhands",
    "Tova",
    "Corm",
    "CormGqa",
    "POLICIES",
    "parse_policy",
    "policy_label",
    "apply_policy",
    "classify_important",
    "KvBlock",
    "KvCacheState",
    "layer_caches",
    "compression_rate",
    "mean_compression_rate",
]


# --------------------------------------------------------------------------
# The policy protocol
# --------------------------------------------------------------------------


def classify_important(scores: np.ndarray, t: int) -> np.ndarray:
    """Flags of the step-t scores at least the mean-score threshold 1/t.

    The one home of the importance test that the recency policies, replay
    and analysis share. The comparison is >= (a score exactly at the
    average counts as important). Works elementwise on an array of any shape.
    """
    return scores >= 1.0 / t


def _model_group(n_heads: int, n_kv_heads: int) -> int:
    """Query heads per kv head of a head layout."""
    if n_heads < 1:
        raise ValueError(f"a kv head needs at least one query head, got {n_heads}")
    if n_kv_heads < 1 or n_heads % n_kv_heads != 0:
        raise ValueError(f"n_heads={n_heads} not divisible by n_kv_heads={n_kv_heads}")
    return n_heads // n_kv_heads


class Policy:
    """Protocol of the eviction policies; each subclass is a frozen dataclass.

    Subclasses define `name` (the policy-string name and registry key), the
    classmethod `parse(args)` (build from the ':'-separated arguments after
    the name), the `label` (canonical short label, also used for output
    directory names) and `step`. Every dataclass field is a size that must be
    >= 1, or None where the field allows it.
    """

    name: ClassVar[str]
    label: str

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and value < 1:
                raise ValueError(f"{self.label}: {f.name} must be >= 1, got {value}")

    def group_size_for(self, n_heads: int, n_kv_heads: int) -> int:
        """Query heads whose rows drive one cache under the given head layout.

        This default is for per-head policies, which need one query head per
        kv head; it raises ValueError on a grouped layout.
        """
        group = _model_group(n_heads, n_kv_heads)
        if group != 1:
            raise ValueError(
                f"{self.label} is a per-head policy; it cannot drive a kv head shared "
                f"by {group} query heads (use gqa_corm or full)"
            )
        return 1

    def step(self, cache: KvCacheState, scores: np.ndarray, t: int, masks: np.ndarray | None = None) -> None:
        """Update `cache` after decode step t.

        scores: (group, n) float64; row i holds the normalized scores that
        query head i of the cache's group gave the cache's n entries at step
        t. masks: optional (group, n) bool importance flags that replace the
        ones derived from scores (replay flags the recorded scores).
        """
        raise NotImplementedError

    def _check(self, cache: KvCacheState, scores: np.ndarray, t: int) -> None:
        """Raise ValueError unless `scores` is this policy's step-t block for `cache`."""
        if cache.step != t:
            raise ValueError(f"cache is at step {cache.step}, update is for step {t}")
        if scores.ndim != 2 or scores.shape[1] != cache.size:
            raise ValueError(f"{scores.shape[-1]} scores for a cache of {cache.size} entries")
        group = self.group_size_for(len(scores), 1)
        if group != len(scores):
            raise ValueError(f"policy group size {group} does not match {len(scores)} query heads per kv head")


def _sizes(name: str, args: list[str], third: bool = False) -> tuple[int, int, int | None]:
    """Parse `A+B` (and, if `third`, an optional `:C`) policy arguments."""
    if not args:
        raise ValueError(f"policy {name!r} expects sizes, e.g. {name}:8+8")
    at_most = 2 if third else 1
    if len(args) > at_most:
        raise ValueError(f"policy {name!r} takes at most {at_most} ':'-separated arguments")
    parts = args[0].split("+")
    if len(parts) != 2:
        raise ValueError(f"policy {name!r} expects A+B sizes, got {args[0]!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"policy {name!r} expects integer sizes, got {args[0]!r}") from None
    return a, b, int(args[1]) if len(args) == 2 else None


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


# --------------------------------------------------------------------------
# The policies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Full(Policy):
    """Keep everything; the identity policy and the accuracy reference."""

    name = "full"
    label = "full"

    @classmethod
    def parse(cls, args: list[str]) -> Full:
        if args:
            raise ValueError("policy 'full' takes no sizes")
        return cls()

    def group_size_for(self, n_heads: int, n_kv_heads: int) -> int:
        return _model_group(n_heads, n_kv_heads)

    def step(self, cache, scores, t, masks=None) -> None:
        pass


@dataclass(frozen=True)
class StreamingLlm(Policy):
    """Keep the first `sink` positions and the last `recent`; evict the rest."""

    sink: int
    recent: int
    name = "streaming"

    @classmethod
    def parse(cls, args: list[str]) -> StreamingLlm:
        sink, recent, _ = _sizes(cls.name, args)
        return cls(sink, recent)

    @property
    def label(self) -> str:
        return f"streaming_{self.sink}+{self.recent}"

    def step(self, cache, scores, t, masks=None) -> None:
        self._check(cache, scores, t)
        cache.keep_only((cache.positions <= self.sink) | (cache.positions > t - self.recent))


@dataclass(frozen=True)
class H2O(Policy):
    """Accumulated-score eviction: keep heavy hitters plus the recent span.

    Every entry accumulates the normalized score each step's query gives it
    (raw, never rescaled after evictions). When the cache exceeds
    heavy+recent, the non-recent entries with the lowest accumulated score
    are evicted, lowest original position first on ties.
    """

    heavy: int
    recent: int
    name = "h2o"

    @classmethod
    def parse(cls, args: list[str]) -> H2O:
        heavy, recent, _ = _sizes(cls.name, args)
        return cls(heavy, recent)

    @property
    def label(self) -> str:
        return f"h2o_{self.heavy}+{self.recent}"

    def step(self, cache, scores, t, masks=None) -> None:
        self._check(cache, scores, t)
        acc = cache.acc_scores
        acc += scores[0]
        excess = cache.size - (self.heavy + self.recent)
        if excess > 0:
            non_recent = cache.positions <= t - self.recent
            _evict_lowest(cache, cache.acc_scores, non_recent, min(excess, int(non_recent.sum())))


@dataclass(frozen=True)
class Scissorhands(Policy):
    """Windowed importance-count eviction.

    Counts, per entry, how many of the last `window` steps flagged it
    important (the same flags as corm). When the cache exceeds
    budget+recent, non-recent entries with the lowest counts go first,
    lowest original position first on ties.
    """

    budget: int
    recent: int
    window: int
    name = "scissorhands"

    @classmethod
    def parse(cls, args: list[str]) -> Scissorhands:
        budget, recent, window = _sizes(cls.name, args, third=True)
        return cls(budget, recent, recent if window is None else window)

    @property
    def label(self) -> str:
        label = f"scissorhands_{self.budget}+{self.recent}"
        return label if self.window == self.recent else f"{label}_w{self.window}"

    def step(self, cache, scores, t, masks=None) -> None:
        self._check(cache, scores, t)
        flags = classify_important(scores, t) if masks is None else masks
        message = cache.push_message(flags[0], self.window)
        excess = cache.size - (self.budget + self.recent)
        if excess > 0:
            counts = message.sum(axis=1).astype(np.float64)
            non_recent = cache.positions <= t - self.recent
            _evict_lowest(cache, counts, non_recent, min(excess, int(non_recent.sum())))


@dataclass(frozen=True)
class Tova(Policy):
    """Evict the entries with the lowest score in the current row once over budget."""

    budget: int
    name = "tova"

    @classmethod
    def parse(cls, args: list[str]) -> Tova:
        if len(args) != 1:
            raise ValueError("policy 'tova' expects one budget, e.g. tova:512")
        return cls(int(args[0]))

    @property
    def label(self) -> str:
        return f"tova_{self.budget}"

    def step(self, cache, scores, t, masks=None) -> None:
        self._check(cache, scores, t)
        excess = cache.size - self.budget
        if excess > 0:
            _evict_lowest(cache, scores[0], np.ones(cache.size, dtype=bool), excess)


@dataclass(frozen=True)
class Corm(Policy):
    """Recency-message eviction with window `w` and protected recent span `r`."""

    w: int
    r: int
    name = "corm"

    @classmethod
    def parse(cls, args: list[str]) -> Corm:
        w, r, _ = _sizes(cls.name, args)
        return cls(w, r)

    @property
    def label(self) -> str:
        return f"corm_{self.w}+{self.r}"

    def step(self, cache, scores, t, masks=None) -> None:
        """One recency-message eviction step.

        The step's mask is the OR of the group's rows of flags: an entry is
        minor only if every query head of the group finds it minor. The mask
        joins the message (the newest w masks). Nothing is evicted until w
        masks exist; afterwards the kept set is exactly {flagged in >= 1 of
        the last w masks} union {entries from the last r steps}.
        """
        self._check(cache, scores, t)
        flags = classify_important(scores, t) if masks is None else masks
        message = cache.push_message(np.logical_or.reduce(flags, axis=0), self.w)
        if message.shape[1] < self.w:
            return
        cache.keep_only(np.logical_or.reduce(message, axis=1) | (cache.positions > t - self.r))


@dataclass(frozen=True)
class CormGqa(Policy):
    """Grouped-query variant: entries minor for *all* query heads in the group.

    group_size=None derives the group size from the model or trace it runs
    against; an explicit value must match the model, and must divide a
    trace's heads.
    """

    w: int
    r: int
    group_size: int | None = None
    name = "gqa_corm"

    @classmethod
    def parse(cls, args: list[str]) -> CormGqa:
        return cls(*_sizes(cls.name, args, third=True))

    @property
    def label(self) -> str:
        label = f"gqa_corm_{self.w}+{self.r}"
        return label if self.group_size is None else f"{label}_g{self.group_size}"

    def group_size_for(self, n_heads: int, n_kv_heads: int) -> int:
        model_group = _model_group(n_heads, n_kv_heads)
        group = model_group if self.group_size is None else self.group_size
        if n_heads % group != 0:
            raise ValueError(f"policy group size {group} does not divide {n_heads} heads")
        return group

    step = Corm.step


POLICIES: dict[str, type[Policy]] = {
    cls.name: cls for cls in (Full, StreamingLlm, H2O, Scissorhands, Tova, Corm, CormGqa)
}


def parse_policy(text: str) -> Policy:
    """Parse a policy string in `name[:sizes[...]]` form.

    Sizes use A+B shorthand: `streaming:4+1020` (sink+recent),
    `h2o:768+256` (heavy+recent), `scissorhands:768+256[:window]`
    (window defaults to recent), `corm:256+256` (w+r),
    `gqa_corm:8+8[:group]`, `tova:512`, `full`.
    """
    name, *args = text.strip().split(":")
    cls = POLICIES.get(name.lower())
    if cls is None:
        raise ValueError(f"unknown policy {text!r}; valid names: {', '.join(POLICIES)}")
    try:
        return cls.parse(args)
    except ValueError as exc:
        raise ValueError(f"bad policy string {text!r}: {exc}") from None


def policy_label(policy: Policy) -> str:
    """Canonical short label, also used for output directory names."""
    return policy.label


def apply_policy(
    policy: Policy, cache: KvCacheState, scores: np.ndarray, t: int, masks: np.ndarray | None = None
) -> None:
    """Run one step of `policy` on one kv-head cache (see `Policy.step`).

    The single entry point through which live decoding and replay update a
    cache: `scores` holds one row per query head attending to it.
    """
    policy.step(cache, scores, t, masks)


# --------------------------------------------------------------------------
# Cache state
# --------------------------------------------------------------------------


INITIAL_CAPACITY = 16  # entries per head before a block first doubles

# The per-entry arrays of a KvBlock, each (n_heads, capacity, ...): row i of
# head h in every one of them belongs to the same cache entry.
ENTRY_ARRAYS = ("keys", "values", "positions", "acc_scores", "message")


class KvBlock:
    """Every per-entry array of every kv head of one layer, preallocated.

    keys (n_heads, capacity, d_k) and values (n_heads, capacity, d_v) hold
    head h's surviving entries in rows [0, sizes[h]), oldest first;
    positions and acc_scores (n_heads, capacity) and message
    (n_heads, capacity, slots) are row-aligned with them (`ENTRY_ARRAYS`).
    message[h, i, (s - 1) % window] is True when step s's query flagged
    entry i important. Its slot count stays 0 under policies that keep no
    message and doubles up to the window as steps are recorded
    (`grow_message`), so a huge window costs only the steps seen.

    Rows past a head's size are free and never read. When a head fills its
    rows, capacity doubles for the whole block, so appends cost amortized
    O(1) and heads of one layer stay in one contiguous array that attention
    can batch over. Each head is used through a KvCacheState handle (see
    `layer_caches`); the block holds no reference back to its handles, so a
    layer's caches are freed as soon as the last handle goes.
    """

    def __init__(self, n_heads: int, d_k: int, d_v: int):
        cap = INITIAL_CAPACITY
        self.keys = np.zeros((n_heads, cap, d_k), dtype=np.float64)
        self.values = np.zeros((n_heads, cap, d_v), dtype=np.float64)
        self.positions = np.zeros((n_heads, cap), dtype=np.int64)
        self.acc_scores = np.zeros((n_heads, cap), dtype=np.float64)
        self.message = np.zeros((n_heads, cap, 0), dtype=bool)
        self.sizes = [0] * n_heads

    @property
    def capacity(self) -> int:
        return self.positions.shape[1]

    def grow(self) -> None:
        """Double the capacity of every head, keeping all rows in place."""
        cap = self.capacity
        for name in ENTRY_ARRAYS:
            old = getattr(self, name)
            # zeros_like keeps old's memory order, so the message stays slot-major
            new = np.zeros_like(old, shape=(old.shape[0], 2 * cap) + old.shape[2:])
            new[:, :cap] = old
            setattr(self, name, new)

    def grow_message(self, slots: int) -> None:
        """Widen every entry's message to `slots` slots, keeping the recorded ones.

        The message is stored slot-major, so the flags one step gave a head's
        entries are contiguous: the per-step mask write and the reductions
        over the window run over contiguous memory.
        """
        m = self.message
        new = np.zeros((m.shape[0], slots, m.shape[1]), dtype=bool).transpose(0, 2, 1)
        new[:, :, : m.shape[2]] = m
        self.message = new

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

    A stateless view of one head of a KvBlock apart from `step`, the last
    step appended: keys, values, positions, acc_scores and message are
    views of the head's first `size` block rows, valid until the next
    append or keep_only. Row i belongs to the entry generated at absolute
    step positions[i]; `acc_scores` accumulates normalized attention per
    entry.

    `message` holds the importance masks of the most recent steps, one bool
    row per step, oldest first, column-aligned with the entries. Policies
    that keep it record one mask per step with `push_message`, after that
    step's append; the view shows the masks of steps up to `step`, so it is
    current once the step's mask is recorded.
    """

    __slots__ = ("block", "head", "step")

    def __init__(self, block: KvBlock, head: int):
        self.block = block
        self.head = head
        self.step = 0

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
        rows = self.block.message[self.head, : self.size, : self.step]
        slots = rows.shape[1]
        # once more steps than slots exist, the oldest kept step sits at slot step % slots
        k = self.step % slots if 0 < slots < self.step else 0
        return np.concatenate([rows[:, k:], rows[:, :k]], axis=1).T if k else rows.T

    def append(self, key, value, position: int) -> None:
        """Add the entry generated at `position` in the head's next free row.

        The row's message slots are cleared (a query recorded before the
        entry existed never flagged it).
        """
        if position <= self.step:
            raise ValueError(f"position {position} not after step {self.step}")
        block, h = self.block, self.head
        n = block.sizes[h]
        if n == block.capacity:
            block.grow()
        for name, x in zip(ENTRY_ARRAYS, (key, value, position, 0.0, False)):
            getattr(block, name)[h, n] = x
        block.sizes[h] = n + 1
        self.step = position

    def push_message(self, mask: np.ndarray, window: int) -> np.ndarray:
        """Record the importance mask of step `step`, keeping the newest `window` masks.

        Call once per step. Returns the kept masks as a (size, rows) view,
        entries first, in slot order, which is oldest first only until the
        window wraps: fit for reductions over the window (axis 1), not for
        reading its order (use `message` for that).
        """
        n, s = self.size, self.step
        if mask.shape != (n,):
            raise ValueError(f"mask has shape {mask.shape} for a cache of {n} entries")
        block = self.block
        slots = block.message.shape[2]
        if slots > window:
            raise ValueError(f"message has {slots} slots, window is {window}")
        if slots < min(s, window):
            block.grow_message(min(max(2 * slots, s), window))
        rows = block.message[self.head, :n]
        rows[:, (s - 1) % window] = mask
        return rows[:, :s]

    def keep_only(self, keep: np.ndarray) -> None:
        """Compact the cache to the entries where `keep` is True, in place.

        Survivors move, in order, to the front of the head's block rows, in
        every per-entry array.
        """
        n = self.size
        if len(keep) != n:
            raise ValueError(f"keep mask has {len(keep)} flags for a cache of {n} entries")
        idx = np.asarray(keep).nonzero()[0]
        k = idx.size
        if k == n:
            return
        block, h = self.block, self.head
        for name in ENTRY_ARRAYS:
            arr = getattr(block, name)[h]
            if arr.size:  # zero-width rows (replay's keys, an unused message) hold nothing
                arr[:k] = arr[idx]
        block.sizes[h] = k

    def check(self) -> None:
        """Raise ValueError naming the first broken layout invariant."""
        block, n = self.block, self.size
        if not 0 <= n <= block.capacity:
            raise ValueError(f"size {n} outside 0..capacity {block.capacity}")
        heads = len(block.sizes)
        for name in ENTRY_ARRAYS:
            shape = getattr(block, name).shape[:2]
            if shape != (heads, block.capacity):
                raise ValueError(f"block {name} has shape {shape}, expected ({heads}, {block.capacity})")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("positions must strictly increase")


def layer_caches(n_heads: int, d_k: int, d_v: int) -> list[KvCacheState]:
    """Caches of every kv head of one layer, sharing one fresh block."""
    block = KvBlock(n_heads, d_k, d_v)
    return [KvCacheState(block, h) for h in range(n_heads)]


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
