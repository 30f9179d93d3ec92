"""In-memory spans around the public functions of ``spopo``'s modules.

The tracer wraps module attributes (never code inside ``src/``), so a call
made through the module namespace, including nested calls such as
``homodyne_spectrum`` -> ``steady_state``, opens its own span.  A span records
its name, parent, start and end, and the process's peak RSS when it closes.
"""

import functools
import resource
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    rss_kb: int = 0      # process peak RSS when the span closed
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; ``wrap`` installs a span around a module attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        span.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(span, args, kwargs, result)`` may add counters."""
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if count is not None:
            count(self.spans[index].counts, args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def to_records(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def from_records(records: list[dict]) -> list[Span]:
    return [Span(**r) for r in records]
