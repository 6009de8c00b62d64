"""In-memory span tracer whose wrappers are installed from outside.

The benchmark never edits the program. It replaces the attribute a
caller looks up (a module-level function name, or a method on the class
that defines it) with a wrapper that records a span around the original
call, and puts the original back afterwards. Spans stay in memory and
are written out once, when the run ends.

Each span has an id, a parent id, a name, a start and an end. A span's
*self time* is its duration minus the time covered by its child spans;
self times summed over a layer (the name's first dotted component)
therefore never double-count nested work, and summed over every layer
they equal the time covered by the outermost spans.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

NS_PER_S = 1e9


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans, self times and call counts for wrapped callables."""

    def __init__(self) -> None:
        #: (span id, parent id or 0, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self._stack: list[list] = []       # [span id, child ns]
        self._active: Counter[str] = Counter()
        self._next_id = 1
        self._restore: list[Callable[[], None]] = []

    # -- wrappers ------------------------------------------------------

    def timed(self, name: str, fn: Callable, *,
              materialize: bool = False) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        A call made while a span of the same name is already open (an
        override calling ``super()``) passes straight through, so the
        name's total counts each outermost call once. ``materialize``
        drains a returned iterator inside the span, for generator
        functions whose work happens on iteration.
        """
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if active[name]:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                if materialize:
                    return iter(list(fn(*args, **kwargs)))
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                spans.append((span_id, parent, name, start, end))
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter only (hot leaves: no span)."""
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        if attr in getattr(owner, "__dict__", {}):
            original = owner.__dict__[attr]
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def replace_item(self, mapping: dict, key: Any, value: Any) -> None:
        """Set ``mapping[key]`` until :meth:`restore`."""
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def wrap(self, owner: Any, attr: str,
             factory: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``factory(current callable)``.

        ``owner`` is a module (the caller's namespace), a class (the
        class defining the method) or an instance. ``classmethod`` and
        ``staticmethod`` descriptors are unwrapped and rewrapped, so
        binding is unchanged.
        """
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        if isinstance(current, (classmethod, staticmethod)):
            value: Any = type(current)(factory(current.__func__))
        else:
            value = factory(current)
        self.replace(owner, attr, value)

    def patch(self, owner: Any, attr: str, name: str, *,
              count_only: bool = False, materialize: bool = False) -> None:
        """Wrap ``owner.attr`` in a span (or a counter) named ``name``."""
        if count_only:
            self.wrap(owner, attr, lambda fn: self.counted(name, fn))
        else:
            self.wrap(owner, attr, lambda fn: self.timed(
                name, fn, materialize=materialize))

    def restore(self) -> None:
        """Put back every original attribute, in reverse order."""
        while self._restore:
            self._restore.pop()()

    # -- results -------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.total_ns[name] / NS_PER_S

    def durations_s(self, name: str) -> list[float]:
        return [(end - start) / NS_PER_S
                for _, _, span_name, start, end in self.spans
                if span_name == name]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[layer_of(name)] += ns / NS_PER_S
        return dict(sorted(out.items()))

    def write(self, path: Path, summary: dict) -> None:
        """Write the spans (gzipped JSON lines) after the run has ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"summary": summary}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
