"""In-memory spans around calls into the package, recorded from outside it.

A wrapper replaces a function at the name its caller resolves (a module
global such as ``treequant.models.quantize_batch`` or a class attribute such
as ``treequant.core.Adam.step``).  Each call made while a job is open becomes
one span: name, start, end, parent span and job id, plus optional exact work
counts computed from the call's arguments and result.  Nothing is written
until the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Recorder:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, job id, counts]
        self._stack = []
        self._patches = []
        self.job = None       # spans are recorded only while a job id is set

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code (job, export, set-up)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``count(result, *args, **kwargs)`` returns a dict of work counts for
        the call; it runs after the span has closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][5] = count(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def wrapped(self, targets):
        """Install ``(owner, attr, name[, count])`` wrappers for the block's duration."""
        mark = len(self._patches)
        try:
            for target in targets:
                self._wrap(*target)
            yield
        finally:
            while len(self._patches) > mark:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, job, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "job": job, "name": name, "parent": parent,
                                     "start": start, "end": end, "counts": counts}) + "\n")


class JobSpans:
    """The spans of one job, with durations, self times and counts by name."""

    def __init__(self, spans, job):
        self.items = [(i, s) for i, s in enumerate(spans) if s[4] == job]
        child_time = {}
        for _, (_, start, end, parent, _, _) in self.items:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self._child_time = child_time

    def named(self, name):
        return [s for _, s in self.items if s[0] == name]

    def durations(self, name):
        return [s[2] - s[1] for s in self.named(name)]

    def total(self, name):
        return sum(self.durations(name))

    def self_time(self, name):
        """Duration minus the time covered by direct children (calls nest, one thread)."""
        return sum(s[2] - s[1] - self._child_time.get(i, 0.0)
                   for i, s in self.items if s[0] == name)

    def count(self, name, key):
        return sum((s[5] or {}).get(key, 0) for s in self.named(name))

    def children_of(self, name):
        """Total duration of direct children of ``name`` spans, by child name."""
        parents = {i for i, s in self.items if s[0] == name}
        out = {}
        for _, s in self.items:
            if s[3] in parents:
                out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1])
        return out

    def covered(self, is_layer):
        """Time covered by outermost spans whose name satisfies ``is_layer``."""
        by_index = dict(self.items)
        total = 0.0
        for _, s in self.items:
            if not is_layer(s[0]):
                continue
            parent = s[3]
            while parent in by_index and not is_layer(by_index[parent][0]):
                parent = by_index[parent][3]
            if parent not in by_index:
                total += s[2] - s[1]
        return total
