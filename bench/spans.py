"""In-memory spans and counters recorded around calls into permscan.

The package has no trace layer of its own yet, so the benchmark wraps the
module attributes through which permscan calls from one layer into the next
(for example ``permscan.study.replicate_statistics``). A wrapper records a
span (name, start, end, parent) and, where a result carries a count, adds it
to a counter. Wrappers are installed only for the duration of a traced call
and the original attributes are restored afterwards, so the untraced timings
run the unmodified program.
"""

import contextlib
import functools
import time
from collections import Counter


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent_index]
        self.counters = Counter()
        self._stack = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._name_id(name), time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``, or
        ``name(args, kwargs)`` when it is callable; ``after(tracer, args,
        kwargs, result)`` runs once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, hooks):
        """Install wrappers for ``hooks``, a list of ``(owner, attribute,
        span_name, after)``, and restore the originals on exit."""
        saved = []
        try:
            for owner, attribute, name, after in hooks:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def totals(self, root):
        """Per-name call counts and summed durations of the spans below
        span index ``root``, and the self time of each direct child of
        ``root`` (its duration minus the spans directly under it)."""
        seconds = Counter()
        calls = Counter()
        child_seconds = Counter()
        inside = {root}
        root_end = self.spans[root][2]
        for index in range(root + 1, len(self.spans)):
            name_id, start, end, parent = self.spans[index]
            if start > root_end:
                break
            if parent not in inside:
                continue
            inside.add(index)
            duration = end - start
            seconds[self.names[name_id]] += duration
            calls[self.names[name_id]] += 1
            child_seconds[parent] += duration
        self_seconds = Counter()
        for index in inside - {root}:
            name_id, start, end, parent = self.spans[index]
            if parent == root:
                self_seconds[self.names[name_id]] += (
                    end - start - child_seconds[index]
                )
        return seconds, calls, self_seconds

    def dump(self):
        """JSON-ready copy of every span and counter."""
        return {
            "names": self.names,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
