"""In-memory spans around the program's public functions.

A Tracer replaces a module attribute (for example ``enumerator.
laguerre_product``) with a wrapper that records a span: name, start, end,
parent and the command it belongs to.  Wrapping happens at the attribute
through which the caller reaches the function, so the program itself is
not edited.  ``uninstall`` puts every original back.

Optional per-span statistics (sizes of the work, such as coefficient
counts) are computed after the span has closed; the time they take is
subtracted from every enclosing span, so they do not inflate any layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, cmd, name, start, end, self_s)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost spans only
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stats: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.cmd = -1
        self._stack: list[list] = []  # [id, name, start, excluded_at_start, child_s, parent]
        self._next_id = 0
        self._active: dict[str, int] = defaultdict(int)
        self._excluded = 0.0
        self._installed: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        sid, self._next_id = self._next_id, self._next_id + 1
        self._stack.append([sid, name, perf(), self._excluded, 0.0, parent])
        self._active[name] += 1

    def close(self) -> float:
        end = perf()
        sid, name, start, excl0, child_s, parent = self._stack.pop()
        dur = (end - start) - (self._excluded - excl0)
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][4] += dur
        if not self._active[name]:
            self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        self.calls[name] += 1
        self.spans.append((sid, parent, self.cmd, name, start, end, dur - child_s))
        return dur

    def exclude(self, fn: Callable[[], None]) -> None:
        """Run bookkeeping whose time no span should count."""
        t0 = perf()
        fn()
        self._excluded += perf() - t0

    def add(self, key: str, value: float) -> None:
        self.stats[key] += value

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str,
             stats: Callable[[tuple, Any], None] | None = None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close()
            if stats is not None:
                self.exclude(lambda: stats(args, result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, times in ms from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for sid, parent, cmd, name, start, end, self_s in sorted(self.spans):
                f.write(json.dumps({
                    "id": sid, "parent": parent, "cmd": cmd, "name": name,
                    "start_ms": round((start - t0) * 1e3, 6),
                    "end_ms": round((end - t0) * 1e3, 6),
                    "self_ms": round(self_s * 1e3, 6),
                }) + "\n")
