"""Per-layer spans taken from outside the solver.

A Tracer replaces a function under the name its callers look it up by
(a module attribute) with a wrapper that counts calls and records inclusive
time and self time, the inclusive time minus the time spent in wrapped
callees.  Nothing in the package changes; the wrappers live only in the
traced process.  A name that no longer exists is recorded as absent and
the run goes on, so the benchmark survives a change that deletes or
renames a solver phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    incl_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.incl_s - self.child_s


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # wrapped-callee time of each open span
        self._installed: list[tuple] = []  # (module, attr, original)

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span called name; on_return(args, result) may
        inspect the call and returns the value handed back to the caller."""
        span = self.span(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.calls += 1
                span.incl_s += dt
                span.child_s += stack.pop()
                if stack:
                    stack[-1] += dt
            return on_return(args, result) if on_return is not None else result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module, attr: str, name: str, on_return=None) -> bool:
        """Wrap module.attr in place; record name as absent when there is no
        such callable."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return False
        setattr(module, attr, self.wrap(name, fn, on_return))
        self._installed.append((module, attr, fn))
        return True

    def uninstall(self):
        """Put every wrapped function back."""
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)
