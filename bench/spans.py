"""Span recorder for the traced run.

The traced run rebinds public names in the modules that call them, so every
call into a layer opens a span (name, start, end, parent) and, for some
layers, adds to a work counter. Spans are kept in flat arrays in memory and
written out once, after the run. A layer's self time is its span duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Recorder:
    """In-memory spans of one single-threaded run, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def span_names(self) -> list[str]:
        return [self.names[n] for n in self.name_id]

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Sum of self time per span name.

    Span i runs from starts[i] to ends[i] and was opened inside span
    parents[i] (-1 for a root). Its self time is its duration minus the union
    of its children's intervals, each clipped to span i.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            c_lo, c_hi = max(starts[c], lo), min(ends[c], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[name] += (hi - lo) - covered
    return dict(out)


def _traced(rec: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if count is not None:
            count(rec.counts, args, kwargs, out)
        return out

    return wrapper


@contextmanager
def installed(rec: Recorder, layers):
    """Rebind each (owner, attribute, span name, counter) to a traced wrapper.

    A name the program no longer has is skipped; its layer then reports 0.
    """
    saved = []
    try:
        for owner, attr, name, count in layers:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(rec, name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _count_word_matrix(counts, args, kwargs, out):
    counts["lfsr.word_matrix.calls"] += 1
    counts["lfsr.words"] += out.size


def _count_next_words(counts, args, kwargs, out):
    counts["lfsr.words"] += out.size


def _count_encode_matrix(counts, args, kwargs, out):
    counts["encoder.bits"] += out[0].size


def _count_f_scale(counts, args, kwargs, out):
    counts["unit_cell.f_scale.calls"] += 1


def _count_outer_product(counts, args, kwargs, out):
    counts["engine.jobs"] += 1
    counts["engine.rng_draws"] += out.rng_draws
    counts["engine.short_circuited"] += out.rng_draws == 0


def _count_outer_product_many(counts, args, kwargs, out):
    entries, draws = out
    seq_len = args[2] if len(args) > 2 else kwargs["seq_len"]
    jobs = entries.shape[0]
    counts["engine.jobs"] += jobs
    counts["engine.rng_draws"] += draws
    counts["engine.short_circuited"] += jobs - draws // (2 * seq_len)


def layers(scop) -> list[tuple]:
    """Every traced name: (owner, attribute, span name, counter or None)."""
    engine, train, oracle = scop.engine, scop.train, scop.oracle
    return [
        (engine, "word_matrix", "lfsr.word_matrix", _count_word_matrix),
        (engine, "encode_matrix", "encoder.encode_matrix", _count_encode_matrix),
        (engine, "f_scale", "unit_cell.f_scale", _count_f_scale),
        (engine, "f_scale_with_lr", "unit_cell.f_scale", _count_f_scale),
        (engine, "outer_product", "engine.outer_product", _count_outer_product),
        (scop.lfsr.Lfsr, "next_words", "lfsr.next_words", _count_next_words),
        (train, "outer_product_many", "engine.outer_product_many",
         _count_outer_product_many),
        (train, "derive_seed_pairs", "engine.derive_seed_pairs", None),
        (train, "apply_update", "engine.apply_update", None),
        (train.Mlp, "forward", "train.Mlp.forward", None),
        (train.Mlp, "backward", "train.Mlp.backward", None),
        (train, "softmax_cross_entropy", "train.softmax_cross_entropy", None),
        (train, "evaluate", "train.evaluate", None),
        (train, "_load_dataset", "train._load_dataset", None),
        (train, "generate_two_moons", "datasets.generate_two_moons", None),
        (train, "train", "train.train", None),
        (oracle, "outer_product_many", "engine.outer_product_many",
         _count_outer_product_many),
        (oracle, "derive_seed_pairs", "engine.derive_seed_pairs", None),
        (oracle, "empirical_stats", "oracle.empirical_stats", None),
    ]


# Span names reported as `<name>.self_s`; "bench" is the harness's own root span.
SELF_TIMED = (
    "lfsr.word_matrix",
    "lfsr.next_words",
    "encoder.encode_matrix",
    "unit_cell.f_scale",
    "engine.OuterProductJob",
    "engine.outer_product",
    "engine.outer_product_many",
    "engine.derive_seed_pairs",
    "engine.apply_update",
    "oracle.empirical_stats",
    "train.Mlp.forward",
    "train.Mlp.backward",
    "train.softmax_cross_entropy",
    "train.evaluate",
    "train._load_dataset",
    "train.train",
    "datasets.generate_two_moons",
    "bench",
)

COUNTERS = (
    "lfsr.word_matrix.calls",
    "lfsr.words",
    "encoder.bits",
    "unit_cell.f_scale.calls",
    "engine.jobs",
    "engine.rng_draws",
)


def per_layer_metrics(rec: Recorder, units: int, traced_s: float, untraced_s: float):
    """Per-layer values per traced unit of work, plus the trace overhead.

    Self times of all spans add up to the traced wall time, the summed
    duration of the root spans; a recorder that breaks this is a bug.
    traced_s and untraced_s are wall times of the same units run with and
    without the wrappers.
    """
    names = rec.span_names()
    selfs = self_times(names, rec.start, rec.end, rec.parent)
    wall = sum(rec.end[i] - rec.start[i] for i, p in enumerate(rec.parent) if p < 0)
    accounted = sum(selfs.values())
    if abs(accounted - wall) > 1e-6 * wall:
        raise RuntimeError(f"self times sum to {accounted} s, traced wall is {wall} s")
    steps = sum(
        1
        for name, p in zip(names, rec.parent)
        if name == "train.Mlp.forward" and p >= 0 and names[p] == "train.train"
    )
    jobs = rec.counts.get("engine.jobs", 0)
    short = rec.counts.get("engine.short_circuited", 0)
    metrics = {f"{n}.self_s": (selfs.get(n, 0.0) / units, "s") for n in SELF_TIMED}
    metrics.update({n: (rec.counts.get(n, 0) / units, "count") for n in COUNTERS})
    metrics["train.steps"] = (steps / units, "count")
    metrics["engine.short_circuit_frac"] = (short / jobs if jobs else 0.0, "ratio")
    metrics["trace.wall_s"] = (wall / units, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics
