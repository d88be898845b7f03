"""Spans recorded from the benchmark's side around public calls into the
engine's modules.

A hook replaces a module-level function by a wrapper that records a span
(name, request, parent span, start, end, attributes of the result).  Spans
stay in memory and are written out when the run ends.  A hooked name that
no longer exists is listed in `absent` instead of raising, so the layer's
metric is reported missing rather than failing the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    request: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def hook(self, name: str, module_name: str, attr: str,
             caller: Optional[str] = None,
             extract: Optional[Callable[[object], dict]] = None) -> None:
        """Trace `module_name.attr` where `caller` references it, or in every
        loaded engine module when `caller` is None."""
        original = getattr(sys.modules.get(module_name), attr, None)
        if caller is not None:
            targets = [sys.modules[caller]] if caller in sys.modules else []
        else:
            targets = [mod for key, mod in list(sys.modules.items())
                       if key == "nondiv" or key.startswith("nondiv.")]
        holders = [(mod, key) for mod in targets for key, value in vars(mod).items()
                   if original is not None and value is original]
        if not holders:
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original, extract)
        for mod, key in holders:
            setattr(mod, key, wrapper)
            self._patches.append((mod, key, original))

    def _wrap(self, name, fn, extract):
        def traced(*args, **kwargs):
            span = Span(name, self.request,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.attrs = extract(result)
            return result
        return traced

    def remove(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def dump(self) -> list[dict]:
        return [{"name": s.name, "request": s.request, "parent": s.parent,
                 "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]
