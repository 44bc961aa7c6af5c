"""Span tracing from outside the program: wrap entry points, fold self times.

The benchmark never edits ``src/``.  A traced run replaces a few public
functions and methods of the simulator with wrappers that record one span per
call -- name, start, end, parent span and the sequence id the call acts on --
in memory, one list per thread so the hot path takes no lock.  When the run
ends, :meth:`Tracer.fold` turns the spans into per-layer call counts and self
times (a span's duration minus the durations of its direct children), and
:meth:`Tracer.write_chrome` writes them as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from typing import Any, Callable, Iterator

#: span tuple fields
NAME, START, END, PARENT, SEQ, OK = range(6)


def _sequence_id(args: tuple) -> int:
    """Sequence id of a call whose first argument after ``self`` is a Sequence."""
    try:
        return args[1].sequence_id
    except (IndexError, AttributeError):
        return -1


class Tracer:
    """In-memory span recorder over wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: (thread id, span list) per thread that recorded anything; a span
        #: is a tuple indexed by NAME ... OK, its parent an index into the
        #: same list (-1 = root)
        self.threads: list[tuple[int, list]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _thread_state(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append((threading.get_ident(), local.spans))
            return local.spans, local.stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (the benchmark's own phases)."""
        spans, stack = self._thread_state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, -1, None)

    def _make_wrapper(
        self,
        original: Callable,
        name: str | Callable[[tuple], str],
        *,
        seq: bool,
        ok: bool,
    ) -> Callable:
        thread_state = self._thread_state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = thread_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name if isinstance(name, str) else name(args),
                    start,
                    end,
                    parent,
                    _sequence_id(args) if seq else -1,
                    bool(result) if ok else None,
                )

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", "wrapped")
        return wrapper

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str | Callable[[tuple], str],
        *,
        seq: bool = False,
        ok: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) for every instance.

        ``seq`` records the sequence id of the call's first argument; ``ok``
        records the truth of its return value (for ``ok_ratio``).
        """
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._make_wrapper(original, name, seq=seq, ok=ok))

    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module-level function and every ``from ... import`` alias of it.

        Modules that imported the function by name hold their own reference,
        so every loaded ``repro`` module whose attribute is the same object
        is rebound too; import those modules before wrapping.
        """
        original = getattr(module, attr)
        wrapper = self._make_wrapper(original, name, seq=False, ok=False)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                self._undo.append((loaded, attr, original))
                setattr(loaded, attr, wrapper)

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -------------------------------------------------------------- analysis

    def span_count(self) -> int:
        return sum(len(spans) for _, spans in self.threads)

    def fold(self) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]]]:
        """Fold the spans into per-layer and per-root totals.

        Per layer (span name): ``calls``, ``total_s``, ``self_s`` and the
        ``ok`` count.  Per root span name: ``total_s`` and ``self_sum_s``,
        the self times of the root and every span under it -- equal unless
        spans overlap or never closed.
        """
        layers: dict[str, dict[str, float]] = {}
        roots: dict[str, dict[str, float]] = {}
        for _, spans in self.threads:
            self_time = [0.0] * len(spans)
            # A parent is appended before its children, so one forward pass
            # resolves every span's root.
            root_of = list(range(len(spans)))
            for index, span in enumerate(spans):
                if span is None:
                    continue  # still open: a thread that never returned
                duration = span[END] - span[START]
                self_time[index] += duration
                parent = span[PARENT]
                if parent < 0:
                    entry = roots.setdefault(span[NAME],
                                             {"total_s": 0.0, "self_sum_s": 0.0})
                    entry["total_s"] += duration
                else:
                    root_of[index] = root_of[parent]
                    self_time[parent] -= duration
            for index, span in enumerate(spans):
                if span is None:
                    continue
                root = spans[root_of[index]]
                if root is not None and root[PARENT] < 0:
                    roots[root[NAME]]["self_sum_s"] += self_time[index]
                entry = layers.setdefault(
                    span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0}
                )
                entry["calls"] += 1
                entry["total_s"] += span[END] - span[START]
                entry["self_s"] += self_time[index]
                if span[OK]:
                    entry["ok"] += 1
        return layers, roots

    def write_chrome(self, path: str, pid: int) -> None:
        """Write every span as a Chrome trace-event ("X" complete event)."""
        origin = min(
            (span[START] for _, spans in self.threads for span in spans if span),
            default=0.0,
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            separator = ""
            for tid, spans in self.threads:
                for index, span in enumerate(spans):
                    if span is None:
                        continue
                    handle.write(
                        separator
                        + '{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,'
                        '"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d,"seq":%d}}'
                        % (span[NAME], (span[START] - origin) * 1e6,
                           (span[END] - span[START]) * 1e6, pid, tid,
                           index, span[PARENT], span[SEQ])
                    )
                    separator = ",\n"
            handle.write("\n]}\n")
