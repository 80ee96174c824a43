"""In-memory span recorder for the traced benchmark run.

Timing wrappers are installed at the module attributes the callers look up
(`ponzilens.detect.build`, `ponzilens.evaluation.detect_contract`, ...), so
the program itself is unchanged. Every span keeps its parent, the contract
it belongs to and the GC pause time that fell inside it; GC pauses come
from `gc.callbacks`. Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

# A counter hook maps the call's return value and its first positional
# argument to counts to add; it runs after the span has closed.
Hook = Callable[[object, object], dict]


class Tracer:
    def __init__(self) -> None:
        # name, parent index, start, end, gc total at start, at end, failed, contract
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.contract = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_started: float | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _on_gc(self, phase: str, _info: dict) -> None:
        # Only pauses inside a span count: the rest belong to the benchmark.
        if phase == "start":
            self._gc_started = perf_counter() if self._stack else None
        elif self._gc_started is not None:
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections += 1

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.gc_pause_s, 0.0, False, self.contract]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = perf_counter()
                span[5] = self.gc_pause_s
                stack.pop()
            if hook is not None:
                self.counters.update(hook(out, args[0] if args else None))
            return out

        return traced

    def install(self, targets: Iterable[tuple[object, str, str, Hook | None]]) -> None:
        """Wrap each (module, attribute, span name, hook) target in place."""
        for module, attr, name, hook in targets:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            # A hook's own span keeps its cost out of the caller's self time.
            hook = hook and self.wrap(hook, "trace.counters")
            setattr(module, attr, self.wrap(original, name, hook))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: busy, self and GC seconds, calls and failures."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, *_ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, _parent, start, end, gc0, gc1, failed, _c) in enumerate(self.spans):
            row = out.setdefault(
                name, {"busy_s": 0.0, "self_s": 0.0, "gc_s": 0.0, "calls": 0, "failed": 0}
            )
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_s[i]
            row["gc_s"] += gc1 - gc0
            row["calls"] += 1
            row["failed"] += int(failed)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (name, parent, start, end, gc0, gc1, failed, contract) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": parent,
                            "contract": contract,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                            "gc_s": gc1 - gc0,
                            "failed": failed,
                        }
                    )
                    + "\n"
                )
