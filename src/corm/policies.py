"""KV-cache eviction policies behind one protocol, and the caches they prune.

Each policy is a frozen dataclass that owns everything about itself: its
`name` in policy strings, its size fields, whose declaration order is both
its policy string (`Policy.parse`) and its `label`, their checks
(`__post_init__`, so an invalid config cannot be built), whether one of its
caches may serve a group of query heads (`grouped`, read by the one
`Policy.group_size_for`), whether its step may evict (`evicts`; decode
attends a whole chunk at once for `full`, which never does), and its
per-step update of a block of caches (`step`), which updates every head of
the block at once. `POLICIES`
registers the classes by name: `parse_policy` looks a class up there and
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
  is evicted. "Flagged by one of the last w" is "last flagged after step
  t - w", so corm keeps only each entry's last flagged step. `gqa_corm` is
  corm on a grouped-query layout: query heads sharing one KV head OR their
  flags together, and an entry must be minor for every head in the group to go.

All updates run once per decode step, after the step's attention output has
been computed, so an eviction affects future steps only. The step t is the
block's own counter (`KvCacheState.step`, advanced by `append`); no caller
passes it. "Recent" always means absolute positions (the last r generated
steps), not cache slots.

Storage: a KvCacheState is a block of caches, one per head: every kv head
of one layer in decode, or every (layer, group) cache in replay. A policy
keeps its own per-entry state in arrays it names through
`KvCacheState.entry_array`: h2o its accumulated scores, corm and gqa_corm
each entry's last flagged step, scissorhands its windowed message and
per-entry counts. A policy step flags, records its flags and builds its
keep mask for all heads in one array operation each, and picks budget
evictions, once over budget, by a row-wise argmin (`_evict_lowest`).
Decode's blocks compact, so attention reads a head's entries as one run;
replay's block works in place, so an eviction moves nothing (`KvCacheState`
names both layouts). The heads of a block share its arrays (a growth
replaces them), so blocks are the unit that may be updated concurrently. A
policy's `check` raises on a broken invariant of a block it steps.
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
    "KvCacheState",
    "compression_rate",
    "mean_compression_rate",
]


# --------------------------------------------------------------------------
# The policy protocol
# --------------------------------------------------------------------------


def classify_important(scores: np.ndarray, t: int) -> np.ndarray:
    """Flags of the step-t scores at least the mean-score threshold 1/t.

    The one home of the importance test, which policies apply to the scores
    they are given and analysis to recorded rows. The comparison is >= (a
    score exactly at the average counts as important). Works elementwise.
    """
    return scores >= 1.0 / t


class Policy:
    """Protocol of the eviction policies; each subclass is a frozen dataclass.

    Subclasses define `name` (the policy-string name and registry key),
    `step` and their dataclass fields. Every field is a size that must be
    >= 1, or None where the field allows it, and the fields in declaration
    order are the policy string (`parse`): the first two are one `A+B`
    argument (a lone field is `A`), and each later one, which must have a
    default, is one more `:C` argument that may be left out. The `label` is
    `name_A+B` (or `name_A`); a class whose later sizes show in its label
    appends them itself.
    """

    name: ClassVar[str]
    # True when `step` decides on score values, not only on their flags;
    # replay renormalizes the restricted rows only for these
    reads_magnitudes: ClassVar[bool] = False
    # True when one cache may serve a group of query heads, False for per-head policies
    grouped: ClassVar[bool] = False
    # False when `step` never changes a cache: decode then appends and attends a chunk at once
    evicts: ClassVar[bool] = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and value < 1:
                raise ValueError(f"{self.label}: {f.name} must be >= 1, got {value}")

    @classmethod
    def parse(cls, args: list[str]) -> Policy:
        """Build from the ':'-separated arguments after the name, in field order."""
        n = len(fields(cls))
        if not n:
            if args:
                raise ValueError(f"policy {cls.name!r} takes no sizes")
            return cls()
        pair = min(n, 2)  # the sizes of the first argument; each later size is one argument
        at_most = n - pair + 1
        if not args:
            raise ValueError(f"policy {cls.name!r} expects sizes, e.g. {cls.name}:{'+'.join(['8'] * pair)}")
        if len(args) > at_most:
            raise ValueError(f"policy {cls.name!r} takes at most {at_most} ':'-separated arguments")
        return cls(*_integers(cls.name, args[0], pair), *[_integers(cls.name, arg)[0] for arg in args[1:]])

    @property
    def label(self) -> str:
        """Canonical short label, also used for output directory names."""
        return f"{self.name}_" + "+".join(str(getattr(self, f.name)) for f in fields(self)[:2])

    def group_size_for(self, n_heads: int, n_kv_heads: int) -> int:
        """Query heads whose rows drive one cache under a checked head layout.

        The policy's own `group_size` field when it has one set, else the
        layout's query heads per kv head. Raises ValueError when a per-head
        policy would drive a group, or when the group does not divide n_heads.
        """
        group = getattr(self, "group_size", None) or n_heads // n_kv_heads
        if group != 1 and not self.grouped:
            raise ValueError(
                f"{self.label} is a per-head policy; it cannot drive a kv head shared "
                f"by {group} query heads (use gqa_corm or full)"
            )
        if n_heads % group != 0:
            raise ValueError(f"policy group size {group} does not divide {n_heads} heads")
        return group

    def step(self, cache: KvCacheState, scores: np.ndarray) -> None:
        """Update every head of the `cache` block after its latest step t = cache.step.

        scores: (heads, group, m) float64 with m = cache.width; scores[h, i]
        holds the scores that query head i of head h's group gave head h's
        entries at step t, zero on its free rows, normalized over the head's
        entries. A policy that flags entries decides on
        `classify_important(scores, t)` alone, so replay passes it the
        recorded scores restricted to its entries, not renormalized.
        """
        raise NotImplementedError

    def check(self, cache: KvCacheState) -> None:
        """Raise ValueError naming the first broken invariant of a block this policy steps."""
        cache.check()

    def _check(self, cache: KvCacheState, scores: np.ndarray) -> None:
        """Raise ValueError unless `scores` is this policy's block for `cache`."""
        if scores.ndim != 3 or scores.shape[0] != cache.n_heads or scores.shape[2] != cache.width:
            raise ValueError(
                f"{scores.shape} scores for a cache block of {cache.n_heads} heads of up to {cache.width} entries"
            )
        if scores.shape[1] < 1:
            raise ValueError(f"a kv head needs at least one query head, got {scores.shape[1]}")
        group = self.group_size_for(scores.shape[1], 1)
        if group != scores.shape[1]:
            raise ValueError(f"policy group size {group} does not match {scores.shape[1]} query heads per kv head")


def _integers(name: str, text: str, count: int = 1) -> list[int]:
    """The sizes of one policy argument: `A+B` if `count` is 2, else a lone integer."""
    parts = text.split("+") if count == 2 else [text]
    if len(parts) != count:
        raise ValueError(f"policy {name!r} expects A+B sizes, got {text!r}")
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"policy {name!r} expects integer sizes, got {text!r}") from None


def _evict_lowest(cache: KvCacheState, ranking: np.ndarray, budget: int, recent: int = 0) -> None:
    """Drop from each head its lowest-ranked entries older than the last `recent` steps until it holds `budget`.

    The one budget check: a block whose fullest head holds at most `budget`
    returns at once. ranking is (heads, width); a head with too few
    candidates drops them all. Each round drops, in every head that still
    must, the row-wise argmin of the ranking over the candidates left.
    argmin returns the first minimum and a head's entries are in position
    order, so ties go to the lower original position.
    """
    if max(cache.sizes) <= budget:
        return
    candidates = cache.positions[:, : ranking.shape[1]] <= cache.step - recent
    n_evict = np.minimum([n - budget for n in cache.sizes], np.add.reduce(candidates, axis=1))
    ranking = np.where(candidates, ranking, np.inf)
    keep = np.ones(ranking.shape, dtype=bool)
    for k in range(max(n_evict.tolist())):
        rows = (n_evict > k).nonzero()[0]
        cols = ranking.argmin(axis=1)[rows]
        keep[rows, cols] = False
        ranking[rows, cols] = np.inf
    cache.keep_only(keep)


# --------------------------------------------------------------------------
# The policies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Full(Policy):
    """Keep everything; the identity policy and the accuracy reference."""

    name = "full"
    label = "full"
    grouped = True
    evicts = False

    def step(self, cache, scores) -> None:
        pass


@dataclass(frozen=True)
class StreamingLlm(Policy):
    """Keep the first `sink` positions and the last `recent`; evict the rest."""

    sink: int
    recent: int
    name = "streaming"

    def step(self, cache, scores) -> None:
        self._check(cache, scores)
        positions = cache.positions[:, : scores.shape[2]]
        cache.keep_only((positions <= self.sink) | (positions > cache.step - self.recent))


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
    reads_magnitudes = True

    def step(self, cache, scores) -> None:
        self._check(cache, scores)
        acc = cache.entry_array("acc_scores", np.float64)[:, : scores.shape[2]]
        acc += scores[:, 0]
        _evict_lowest(cache, acc, self.heavy + self.recent, self.recent)


@dataclass(frozen=True)
class Scissorhands(Policy):
    """Windowed importance-count eviction.

    Counts, per entry, how many of the last `window` steps flagged it
    important (the same flags as corm). When the cache exceeds
    budget+recent, non-recent entries with the lowest counts go first,
    lowest original position first on ties.

    The block holds the flags in `message`, (heads, capacity, slots) bool:
    step t's flags sit in slot (t - 1) % window. The slot count doubles up
    to the window as steps are seen, so a huge window costs only the steps
    seen. `counts` holds each entry's sum over its slots: every step adds
    its flags and subtracts the ones they overwrite.
    """

    budget: int
    recent: int
    window: int | None = None  # None: the recent span
    name = "scissorhands"

    def __post_init__(self) -> None:
        if self.window is None:
            object.__setattr__(self, "window", self.recent)
        super().__post_init__()

    @property
    def label(self) -> str:
        label = super().label
        return label if self.window == self.recent else f"{label}_w{self.window}"

    def step(self, cache, scores) -> None:
        self._check(cache, scores)
        t, m = cache.step, scores.shape[2]
        message = cache.entry_array("message", np.bool_, min(1 << (t - 1).bit_length(), self.window))
        if message.shape[2] > self.window:
            raise ValueError(f"message has {message.shape[2]} slots, window is {self.window}")
        counts = cache.entry_array("counts", np.int64)[:, :m]
        slot = message[:, :m, (t - 1) % self.window]
        flags = classify_important(scores[:, 0], t)
        counts -= slot
        counts += flags
        slot[...] = flags
        _evict_lowest(cache, counts, self.budget + self.recent, self.recent)

    def check(self, cache) -> None:
        """Also raise unless each entry's count is the sum of its message slots."""
        cache.check()
        counts = getattr(cache, "counts", None)
        if counts is None:
            return
        m, held = cache.width, cache.held
        wrong = held & (counts[:, :m] != cache.message[:, :m].sum(axis=2))
        if wrong.any():
            raise ValueError(f"head {np.argwhere(wrong)[0][0]}: a message count differs from the message's sum")


@dataclass(frozen=True)
class Tova(Policy):
    """Evict the entries with the lowest score in the current row once over budget."""

    budget: int
    name = "tova"
    reads_magnitudes = True

    def step(self, cache, scores) -> None:
        self._check(cache, scores)
        _evict_lowest(cache, scores[:, 0], self.budget)


@dataclass(frozen=True)
class Corm(Policy):
    """Recency-message eviction with window `w` and protected recent span `r`."""

    w: int
    r: int
    name = "corm"

    def step(self, cache, scores) -> None:
        """One recency-message eviction step.

        An entry is flagged when any query head of the group flags it (it
        is minor only if every head finds it minor), and its last flagged
        step becomes t. Nothing is evicted before step w; afterwards the kept
        set is exactly {flagged in one of the last w steps, i.e. last flagged
        after t - w} union {entries from the last r steps}.
        """
        self._check(cache, scores)
        t, m = cache.step, scores.shape[2]
        flags = classify_important(scores, t)
        flagged_at = cache.entry_array("flagged_at", np.int64)[:, :m]
        np.putmask(flagged_at, flags[:, 0] if flags.shape[1] == 1 else np.logical_or.reduce(flags, axis=1), t)
        if t >= self.w:
            keep = flagged_at > t - self.w
            keep |= cache.positions[:, :m] > t - self.r
            cache.keep_only(keep)

    def check(self, cache) -> None:
        """Also raise unless each entry's `flagged_at` is 0 (never flagged) or a step from its position to t."""
        cache.check()
        flagged_at = getattr(cache, "flagged_at", None)
        if flagged_at is None:
            return
        m, held = cache.width, cache.held
        flagged, positions = flagged_at[:, :m], cache.positions[:, :m]
        wrong = held & ((flagged < 0) | (flagged > cache.step) | ((flagged != 0) & (flagged < positions)))
        if wrong.any():
            h = np.argwhere(wrong)[0][0]
            raise ValueError(f"head {h}: flagged_at must be 0 or a step from its entry's position to {cache.step}")


@dataclass(frozen=True)
class CormGqa(Corm):
    """Corm on a grouped-query layout: entries minor for *all* query heads in the group.

    group_size=None derives the group size from the model or trace it runs
    against; an explicit value must match the model, and must divide a
    trace's heads.
    """

    group_size: int | None = None
    name = "gqa_corm"
    grouped = True

    @property
    def label(self) -> str:
        label = super().label
        return label if self.group_size is None else f"{label}_g{self.group_size}"


POLICIES: dict[str, type[Policy]] = {
    cls.name: cls for cls in (Full, StreamingLlm, H2O, Scissorhands, Tova, Corm, CormGqa)
}


def parse_policy(text: str) -> Policy:
    """Parse a policy string in `name[:A+B[:C]]` form (see `Policy.parse`).

    The sizes are the class's fields in order: `streaming:4+1020`
    (sink+recent), `h2o:768+256` (heavy+recent),
    `scissorhands:768+256[:window]` (window defaults to recent),
    `corm:256+256` (w+r), `gqa_corm:8+8[:group]`, `tova:512`, `full`.
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
    """`policy.label`; kept only for perfbench's import, so code reads `policy.label`."""
    return policy.label


def apply_policy(policy: Policy, cache: KvCacheState, scores: np.ndarray) -> None:
    """Run one step of `policy` on every head of one cache block (see `Policy.step`).

    The single entry point through which live decoding (once per layer) and
    replay (once per step) update caches: `scores[h]` holds one row per
    query head attending to head h.
    """
    policy.step(cache, scores)


# --------------------------------------------------------------------------
# Cache state
# --------------------------------------------------------------------------


INITIAL_CAPACITY = 16  # entries per head before a block first doubles
FREE = np.iinfo(np.int64).max  # the position of every free row: later than any step


class KvCacheState:
    """Surviving entries of a block of kv-head caches, and the policy's per-entry state.

    One block holds every kv head of one layer in decode, or every
    (layer, group) cache in replay; a policy step updates all of its heads
    at once. Row i of head h holds the entry of absolute step
    positions[h, i], or is free: its position is FREE, which reads as recent
    in every policy's position test (so no policy picks it and keep masks
    keep it), and its other arrays hold stale values that are never read.
    `held` marks the rows that hold an entry. `step` is the last step
    appended, the one step counter from which every policy step reads its t.
    Two layouts, chosen at construction:

    * compacting (decode): head h's entries fill rows [0, sizes[h]), oldest
      first, so attention reads them as one run; `keep_only` moves the
      survivors up. `width`, the last axis of a step's scores, is max(sizes).
    * in place (`in_place=True`, replay): row i is position i + 1 or free;
      `append` writes row `step`, `keep_only` only frees rows, and `width`
      is `step`.

    `entry_names` names the per-entry arrays, each an attribute of shape
    (n_heads, capacity, ...): keys and values, (n_heads, capacity, d) with
    d 0 in replay; positions, (n_heads, capacity) int64; then every array a
    policy asked for by name (`entry_array`). The block grows, clears and
    evicts from them all alike and reads none of the policies' arrays. When
    a head fills its rows, capacity doubles for the whole block, so appends
    cost amortized O(1). `sizes` is a Python list: on a few heads, list
    arithmetic costs a fraction of a numpy call.
    """

    # perfbench's traced spans `getattr` both names on every block (ROADMAP
    # item 1); a policy's array of that name shadows the default
    acc_scores = message = None

    def __init__(self, n_heads: int, d: int, in_place: bool = False):
        cap = INITIAL_CAPACITY
        self.keys = np.zeros((n_heads, cap, d), dtype=np.float64)
        self.values = np.zeros((n_heads, cap, d), dtype=np.float64)
        self.positions = np.full((n_heads, cap), FREE, dtype=np.int64)
        self.entry_names = ["keys", "values", "positions"]
        self.sizes = [0] * n_heads
        self.step = 0
        self.in_place = in_place
        self._index_rows()

    @property
    def n_heads(self) -> int:
        return len(self.sizes)

    @property
    def capacity(self) -> int:
        return self.positions.shape[1]

    @property
    def size(self) -> int:
        """Entries held by all heads together."""
        return sum(self.sizes)

    @property
    def width(self) -> int:
        """Rows a step's scores cover: the fullest head's size, or `step` in place."""
        return self.step if self.in_place else max(self.sizes)

    @property
    def held(self) -> np.ndarray:
        """(n_heads, width) bool: True on the rows that hold an entry."""
        return self.positions[:, : self.width] != FREE

    def head_positions(self, h: int) -> np.ndarray:
        """Positions of head h's entries, oldest first (a copy)."""
        positions = self.positions[h, : self.width]
        return positions[positions != FREE]

    def entry_array(self, name: str, dtype, slots: int = 0) -> np.ndarray:
        """The per-entry array `name`, (n_heads, capacity) or, with `slots`, (n_heads, capacity, slots).

        The first call registers a zero-filled array of `dtype` under `name`.
        A slotted array is stored slot-major, so one slot of a head's entries
        is contiguous; asking for more slots than it has widens it, keeping
        the recorded slots, and asking for fewer returns it as it is.
        """
        arr = getattr(self, name, None)
        if arr is not None and (not slots or slots <= arr.shape[2]):
            return arr
        heads, cap = self.positions.shape
        new = np.zeros((heads, slots, cap) if slots else (heads, cap), dtype=dtype)
        if slots:
            new = new.transpose(0, 2, 1)
        if arr is None:
            self.entry_names.append(name)
        else:
            new[:, :, : arr.shape[2]] = arr
        setattr(self, name, new)
        self._index_rows()
        return new

    def _index_rows(self) -> None:
        # the policy arrays `append` clears (after keys, values and positions),
        # and the non-empty arrays `keep_only` moves, with each entry's width;
        # every method that replaces an array rebuilds these. A C-contiguous
        # (n_heads, capacity, d) array goes in as its (n_heads, capacity * d)
        # view: numpy moves an overlapping 1-D slice in place, a 2-D one
        # through a temporary copy
        self._cleared = [getattr(self, name) for name in self.entry_names[3:]]
        self._rows = []
        for arr in (getattr(self, name) for name in self.entry_names):
            if arr.ndim == 3 and arr.flags.c_contiguous and arr.size:
                self._rows.append((arr.reshape(arr.shape[0], -1), arr.shape[2]))
            elif arr.size:
                self._rows.append((arr, 1))

    def equal_size_runs(self) -> list[tuple[int, int, int]]:
        """(start, stop, size) of each run of consecutive heads holding equally many entries."""
        sizes = self.sizes
        runs, start = [], 0
        for h in range(1, len(sizes)):
            if sizes[h] != sizes[start]:
                runs.append((start, h, sizes[start]))
                start = h
        runs.append((start, len(sizes), sizes[start]))
        return runs

    def grow(self) -> None:
        """Double the capacity of every head, keeping all rows in place."""
        cap = self.capacity
        for name in self.entry_names:
            old = getattr(self, name)
            # full_like keeps old's memory order, so slotted arrays stay slot-major
            fill = FREE if name == "positions" else 0
            new = np.full_like(old, fill, shape=(old.shape[0], 2 * cap) + old.shape[2:])
            new[:, :cap] = old
            setattr(self, name, new)
        self._index_rows()

    def append(self, keys, values) -> None:
        """Add the entries of steps `step + 1 ...` to every head, in its next free rows.

        keys and values, arrays each (n_heads, d) or (n, n_heads, d), hold one row
        or n rows per head, row i being step `step + 1 + i`'s: rows from
        `step` on in place, from sizes[h] when compacting. Any other shape
        raises ValueError. The rows of every policy array are cleared (a
        query recorded before the entry existed never flagged it).
        """
        sizes, d = self.sizes, self.keys.shape[2]
        n = len(keys) if keys.ndim == 3 else 1
        if not n or keys.ndim > 3 or keys.shape[-2:] != (len(sizes), d) or values.shape != keys.shape:
            raise ValueError(f"keys {keys.shape} and values {values.shape} are not rows of {len(sizes)} heads of {d}")
        if keys.ndim == 3:  # (n_heads, n, d), or (n_heads, d) for one row
            keys, values = (keys.swapaxes(0, 1), values.swapaxes(0, 1)) if n > 1 else (keys[0], values[0])
        position, width = self.step + 1, self.width
        while width + n > self.capacity:
            self.grow()
        # the same rows of each array when every head writes the same rows,
        # else one head at a time: on a few heads that beats a fancy-indexed write
        rows = [(slice(None), width)] if self.in_place or min(sizes) == width else enumerate(sizes)
        steps = position if n == 1 else np.arange(position, position + n)
        for h, a in rows:
            at = a if n == 1 else slice(a, a + n)  # a row index where it will do: it writes faster
            if d:  # replay's caches hold positions only
                self.keys[h, at] = keys[h]
                self.values[h, at] = values[h]
            self.positions[h, at] = steps
            for arr in self._cleared:
                arr[h, at] = 0
        self.sizes = [s + n for s in sizes]
        self.step = position + n - 1

    def keep_only(self, keep: np.ndarray) -> None:
        """Keep each head's entries where `keep` (n_heads, width) is True; flags on free rows are ignored.

        In place, the dropped rows become free and nothing moves. Compacting,
        each run of survivors after a dropped entry moves up behind the
        survivors before it, one slice assignment per non-empty array (a 1-D
        slice wherever the array's layout allows); a mask that keeps every
        row returns before any per-head work.
        """
        if keep.shape != (self.n_heads, self.width):
            raise ValueError(f"keep mask has shape {keep.shape} for {self.n_heads} caches of up to {self.width} entries")
        if self.in_place:
            drop = self.held & ~keep
            self.positions[:, : self.step][drop] = FREE
            self.sizes = [n - k for n, k in zip(self.sizes, np.add.reduce(drop, axis=1).tolist())]
            return
        flat_drops = np.logical_not(keep).ravel().nonzero()[0].tolist()
        if not flat_drops:  # nothing dropped: no per-head plan
            return
        sizes, width = self.sizes, keep.shape[1]
        dropped: dict[int, list[int]] = {}
        for flat in flat_drops:
            h, i = divmod(flat, width)
            if i < sizes[h]:
                dropped.setdefault(h, []).append(i)
        for h, gone in dropped.items():
            n = sizes[h]
            k = gone[0]  # the survivors before the first dropped entry stay in place
            for start, stop in zip([i + 1 for i in gone], gone[1:] + [n]):
                if start < stop:
                    for arr, w in self._rows:
                        arr[h, k * w : (k + stop - start) * w] = arr[h, start * w : stop * w]
                    k += stop - start
            self.positions[h, k:n] = FREE
            sizes[h] = k

    def check(self) -> None:
        """Raise ValueError naming the first broken layout invariant."""
        cap, heads = self.capacity, self.n_heads
        for h, n in enumerate(self.sizes):
            if not 0 <= n <= cap:
                raise ValueError(f"head {h}: size {n} outside 0..capacity {cap}")
        for name in self.entry_names:
            arr = getattr(self, name)
            if arr.shape[:2] != (heads, cap):
                raise ValueError(f"block {name} has shape {arr.shape[:2]}, expected ({heads}, {cap})")
        for h, n in enumerate(self.sizes):
            rows = np.flatnonzero(self.positions[h] != FREE)
            positions = self.positions[h, rows]
            if rows.size != n or not (self.in_place or rows.size == 0 or rows[-1] == n - 1):
                raise ValueError(f"head {h}: a free row holds a position, or one of its first {n} rows none")
            if self.in_place and np.any(positions != rows + 1):
                raise ValueError(f"head {h}: held row i must hold position i + 1")
            if np.any(np.diff(positions) <= 0):
                raise ValueError(f"head {h}: positions must strictly increase")
            if n and positions[-1] > self.step:
                raise ValueError(f"head {h}: position {positions[-1]} lies past step {self.step}")


# --------------------------------------------------------------------------
# Compression accounting
# --------------------------------------------------------------------------


def compression_rate(sizes: Sequence[int], t: int) -> np.ndarray:
    """Per cache, 1 - (size / t): the fraction of generated entries evicted after step t.

    `sizes` holds cache sizes: one block's `sizes`, or a row of a decode's
    `DecoderState.step_sizes`.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return 1.0 - np.asarray(sizes) / t


def mean_compression_rate(sizes: Sequence[int], t: int) -> float:
    """Model-wide rate after step t: the mean of `compression_rate` over every cache in `sizes`."""
    return float(np.mean(compression_rate(sizes, t)))
