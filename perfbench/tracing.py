"""Span tracing from outside the package, by swapping module attributes.

The layers of ``parityca`` call each other through module attributes
(``packed.batch_step``, ``engine.step``, ...), so replacing an attribute
with a timing wrapper puts a span on every call that crosses that layer
boundary, without touching the package source. Spans nest by a stack,
because everything traced runs on one thread; work done inside pool
workers is covered by the ``verifier.pool`` span of the parent.

Spans are kept in flat arrays and written out when the run ends.
"""
from __future__ import annotations

import contextlib
import gzip
import multiprocessing
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Records spans (name, start, end, parent) and counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.pass_ids = array("l")
        self.pass_id = 0
        self.counts: Counter[str] = Counter()
        self.origin = perf_counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self.pass_ids.append(self.pass_id)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def wrap(self, name: str, fn, count=None):
        """A stand-in for fn that records one span per call.

        ``count(counts, args, result)`` may add work counters for the call.
        """

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def totals(self, first: int, last: int) -> dict[str, tuple[int, float, float]]:
        """Per span name over spans [first, last): (calls, inclusive s, self s)."""
        out: dict[str, list] = {}
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - self.child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times from creation."""
        with gzip.open(path, "wt") as f:
            f.write("pass\tid\tparent\tname\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.start)):
                s, e = self.start[i], self.end[i]
                f.write(
                    f"{self.pass_ids[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{s - self.origin:.9f}\t{e - self.origin:.9f}\t{e - s - self.child[i]:.9f}\n"
                )


class _TracedPool:
    """Context manager around a real pool; one span from creation to exit."""

    def __init__(self, tracer: Tracer, args, kwargs) -> None:
        self._tracer = tracer
        self._span = tracer.open("verifier.pool")
        self._pool = multiprocessing.Pool(*args, **kwargs)

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(self._span)


class _TracedMultiprocessing:
    """Stands in for the ``multiprocessing`` module inside ``verifier``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def Pool(self, *args, **kwargs):
        return _TracedPool(self._tracer, args, kwargs)

    def __getattr__(self, name):
        return getattr(multiprocessing, name)


def _count_batch_step(counts, args, result) -> None:
    _lut, c, n = args[:3]
    counts["configs_stepped"] += c.size
    counts["cell_updates"] += c.size * n


def _count_necklace(counts, args, result) -> None:
    counts["necklace_in"] += args[0].size
    counts["necklace_kept"] += int(result.sum())


def _count_checked(counts, args, result) -> None:
    counts["checked"] += result.checked


def targets(tracer: Tracer):
    """(module, attribute, replacement) for every traced layer boundary."""
    from parityca import engine, metrics, packed, verifier

    spec = [
        (packed, "batch_step", _count_batch_step),
        (packed, "switch_counts", None),
        (packed, "domain_masks", None),
        (packed, "merge_mask", None),
        (packed, "ordered_block_length_masks", None),
        (packed, "necklace_mask", _count_necklace),
        (engine, "step", None),
        (engine, "evolve", None),
        (engine, "space_time", None),
        (metrics, "switches", None),
        (metrics, "find_domains", None),
        (metrics, "ordered_blocks", None),
        (metrics, "merge_events", None),
        (metrics, "report_json", None),
        (verifier, "verify_size", _count_checked),
        (verifier, "search_counterexamples", None),
        (verifier, "check_trajectory_invariants", None),
    ]
    out = []
    for module, attr, count in spec:
        layer = module.__name__.rsplit(".", 1)[-1]
        fn = getattr(module, attr)
        out.append((module, attr, tracer.wrap(f"{layer}.{attr}", fn, count)))
    out.append((verifier, "multiprocessing", _TracedMultiprocessing(tracer)))
    # One root span per configuration of the single-configuration workload.
    import workloads

    out.append((workloads, "single_output",
                tracer.wrap("bench.single_output", workloads.single_output)))
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, replacement in targets(tracer):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
