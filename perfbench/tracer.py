"""Outside-in span recorder for the traced run.

The recorder replaces public dicepool functions with wrappers that log
one span per call: name, start, end and the enclosing span. Spans live
in flat arrays until the run ends. `uninstall` puts every original
attribute back, so the untraced run always measures unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

_MISSING = object()


def targets(dicepool) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every entry point the run wraps.

    `cli` imported `roll_batch`, `bench_recycler` and `bench_naive` by
    name, so those are wrapped where cli looks them up; `harness` calls
    `chi_square` and `radix` calls `decode_mixed_radix` through their own
    module globals.
    """
    analysis, cli, harness, radix = (
        dicepool.analysis, dicepool.cli, dicepool.harness, dicepool.radix)
    return [
        (dicepool.sources.SeededSource, "next_bits", "sources.next_bits"),
        (dicepool.sources.CountingSource, "next_bits", "sources.counting"),
        (dicepool.pool.EntropyPool, "roll", "pool.roll"),
        (dicepool.pool.EntropyPool, "top_off", "pool.top_off"),
        (dicepool.pool.EntropyPool, "roll_step", "pool.roll_step"),
        (cli, "roll_batch", "radix.roll_batch"),
        (radix, "decode_mixed_radix", "radix.decode_mixed_radix"),
        (cli, "bench_recycler", "harness.bench_recycler"),
        (cli, "bench_naive", "harness.bench_naive"),
        (harness, "shuffle", "harness.shuffle"),
        (harness, "chi_square", "harness.chi_square"),
        (analysis, "waste_per_roll", "analysis.waste_per_roll"),
        (analysis, "binary_entropy", "analysis.binary_entropy"),
        (cli, "main", "cli.main"),
    ]


class SpanRecorder:
    """Spans in four parallel arrays; span i's parent is an index or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_of)

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return span

    def install(self, entries) -> None:
        """Wrap each (owner, attribute, name); remember what was there."""
        if self._saved:
            raise RuntimeError("recorder is already installed")
        for owner, attr, name in entries:
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        """Restore every attribute exactly; inherited ones are deleted again."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, entries):
        self.install(entries)
        try:
            yield self
        finally:
            self.uninstall()

    def write_tsv(self, path) -> None:
        with open(path, "w") as out:
            out.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i, (n, p, s, e) in enumerate(
                    zip(self.name_of, self.parent, self.start, self.end)):
                out.write(f"{i}\t{p}\t{self.names[n]}\t{s}\t{e}\n")


def self_times(parent, start, end) -> list[int]:
    """Duration of each span minus the time its direct children cover.

    Spans of one thread nest, so children never overlap and the covered
    time is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(rec: SpanRecorder) -> dict[str, dict[str, int]]:
    """Per span name: calls, self_ns, and calls whose parent is each name."""
    own = self_times(rec.parent, rec.start, rec.end)
    out = {name: {"calls": 0, "self_ns": 0} for name in rec.names}
    for i, name_id in enumerate(rec.name_of):
        entry = out[rec.names[name_id]]
        entry["calls"] += 1
        entry["self_ns"] += own[i]
        p = rec.parent[i]
        if p >= 0:
            key = "under:" + rec.names[rec.name_of[p]]
            entry[key] = entry.get(key, 0) + 1
    return out
