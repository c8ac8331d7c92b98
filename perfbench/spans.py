"""Spans recorded from outside the program, by patching module attributes.

A span wraps one public function of a corm module. Spans nest through a
stack, so each span knows how much of its duration its child spans cover;
its self time is the rest. Patching must replace every name the function is
reachable under: corm modules bind each other's functions with
``from ... import ...``, so a function is patched in its defining module and
in every module that imported it, or calls through the importer's name would
record nothing.
"""

from __future__ import annotations

import functools
import time


class Stat:
    """Totals of one span name: calls, inclusive time, self time, counters."""

    def __init__(self, keep_durations: bool = False):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = [] if keep_durations else None
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


class Spans:
    """In-memory span totals for one traced iteration."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time covered, one slot per open span
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str, keep_durations: bool = False) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(keep_durations)
        return self.stats[name]

    def wrap(self, name, fn, *, before=None, after=None, keep_durations=False):
        """Return `fn` wrapped in a span named `name`.

        `before(args, kwargs)` runs ahead of the span and its result is passed
        to `after(stat, token, args, kwargs, result, dur)`, which runs once the
        span is closed; both feed counters without entering the span's time.
        """
        stat = self.stat(name, keep_durations)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - child
                if stat.durations is not None:
                    stat.durations.append(dur)
            if after is not None:
                after(stat, token, args, kwargs, result, dur)
            return result

        return wrapper

    def patch(self, name, owner, attr, aliases=(), **kw) -> None:
        """Replace `attr` on `owner` with a span wrapper, and every alias of it.

        `aliases` are modules that may have bound the same function under the
        same name; each one that did is patched too. A function that no
        longer exists leaves a span with zero calls rather than a crash.
        """
        original = getattr(owner, attr, None)
        self.stat(name, kw.get("keep_durations", False))
        if original is None:
            return
        wrapped = self.wrap(name, original, **kw)
        for target in (owner, *aliases):
            if target is owner or getattr(target, attr, None) is original:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapped)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

