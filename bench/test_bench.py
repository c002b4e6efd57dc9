"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import run
import spans
import workloads
from gate import Gate, digest, load_goldens

SCOP = run.load_scop()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a unit takes milliseconds."""
    monkeypatch.setattr(workloads, "SHAPES", ((8, 16), (16, 32), (8, 64)))
    monkeypatch.setattr(workloads, "ZERO_JOBS", 1)
    monkeypatch.setattr(workloads, "STATS_N", 8)
    monkeypatch.setattr(workloads, "STATS_TRIALS", 40)
    monkeypatch.setattr(workloads, "TRAIN_EPOCHS", 2)


def _flip_first_bit(array: np.ndarray) -> np.ndarray:
    flipped = np.array(array)
    flipped.reshape(-1).view(np.uint8)[0] ^= 1
    return flipped


def _inputs(wl) -> str:
    if isinstance(wl, workloads.OuterGrid):
        return digest(*[(j.key, j.x, j.d, j.seed_x, j.seed_d, j.lr, j.cells)
                        for j in wl.jobs])
    if isinstance(wl, workloads.StatsBatch):
        return digest(*[(c.key, c.x, c.d, c.base_x, c.base_d, c.cells) for c in wl.pool])
    return digest(repr(wl.config))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert _inputs(cls(SCOP, 5)) == _inputs(cls(SCOP, 5))
    assert _inputs(cls(SCOP, 5)) != _inputs(cls(SCOP, 6))


def test_outer_grid_round_order_is_the_same_for_every_seed():
    def order(seed, r):
        """Shapes of the jobs of round r in run order; None for a short-circuited job."""
        wl = workloads.OuterGrid(SCOP, seed)
        jobs = [wl.unit(k) for k in range(r * wl.round_size, (r + 1) * wl.round_size)]
        return [(j.x.size, j.seq_len) if j.live else None for j in jobs]

    assert order(1, 0) == order(2, 0) and order(1, 3) == order(2, 3)
    assert order(1, 0) != order(1, 3)
    live = sorted(shape for shape in order(1, 3) if shape)
    assert live == sorted(workloads.SHAPES)
    assert order(1, 3).count(None) == workloads.ZERO_JOBS


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (itself holding a1 [2, 3]), b [3, 6] overlapping
    # a, and c [8, 12] running past the root's end
    names = ["root", "a", "a1", "b", "c"]
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = spans.self_times(names, starts, ends, parents)
    # root loses the union [1, 6] + [8, 10]
    assert got == {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 4.0}


def test_recorded_self_times_account_for_the_wall_time():
    rec = spans.Recorder()
    with rec.span("bench"):
        with rec.span("x"):
            with rec.span("y"):
                sum(range(1000))
        with rec.span("y"):
            pass
    selfs = spans.self_times(rec.span_names(), rec.start, rec.end, rec.parent)
    assert sum(selfs.values()) == pytest.approx(rec.end[0] - rec.start[0], rel=1e-9)
    assert list(rec.parent) == [-1, 0, 1, 0]


def test_gate_fails_on_one_flipped_bit():
    out = np.linspace(-1, 1, 12).astype(np.float16).reshape(3, 4)
    gate = Gate({"op": digest(out.view(np.uint16))})
    assert gate.check_digest("op", digest(out.view(np.uint16)))
    assert not gate.check_digest("op", digest(_flip_first_bit(out).view(np.uint16)))
    assert gate.bad == {"op"}


def test_flipped_engine_bit_fails_the_scalar_route(small, monkeypatch):
    """No golden for this seed: the scalar route must catch a flipped sampled entry."""
    wl = workloads.OuterGrid(SCOP, 12345)
    cell = {id(j.x): j.cells[0] for j in wl.jobs}
    real = SCOP.engine.outer_product

    def flipped(job):
        out = real(job)
        entries = np.array(out.entries)
        entries.view(np.uint16)[cell[id(job.x)]] ^= 1
        return SCOP.engine.UpdateMatrix(entries, out.rng_draws, out.scale)

    monkeypatch.setattr(SCOP.engine, "outer_product", flipped)
    gate = Gate({})
    keys = {wl.run(wl.unit(k), gate).op_keys[0] for k in range(wl.round_size)}
    assert not gate.bad
    wl.scalar_checks(gate)
    assert gate.bad == keys


def test_flipped_moment_bit_fails_the_scalar_route(small, monkeypatch):
    wl = workloads.StatsBatch(SCOP, 12345)
    gate = Gate({})
    wl.run(wl.unit(0), gate)
    wl.scalar_checks(gate)
    assert not gate.bad and gate.scalar_entries == workloads.CELLS_PER_STATS

    real = SCOP.oracle.empirical_stats
    cell = {id(c.x): c.cells[0] for c in wl.pool}

    def flipped(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        mean = np.array(out.mean)
        mean.view(np.uint64)[cell[id(x)]] ^= 1
        return SCOP.oracle.EstimatorStats(mean, out.variance, out.trials,
                                          out.confidence_halfwidth)

    monkeypatch.setattr(SCOP.oracle, "empirical_stats", flipped)
    wl.run(wl.unit(1), gate)
    wl.scalar_checks(gate)
    assert gate.bad == {"p1"}


def test_fit_with_one_flipped_output_bit_fails(small, monkeypatch):
    wl = workloads.TrainSc16(SCOP, 12345)
    gate = Gate({})
    wl.run(wl.unit(0), gate)
    assert not gate.bad
    real = SCOP.train.train

    def flipped(config):
        metrics = real(config)
        acc = np.array([metrics.final_test_acc])
        metrics.final_test_acc = float(_flip_first_bit(acc)[0])
        return metrics

    monkeypatch.setattr(SCOP.train, "train", flipped)
    res = wl.run(wl.unit(1), gate)
    assert gate.bad == {"fit"} and len(res.op_keys) == 2 * wl.steps_per_epoch


def test_fit_with_an_extra_forward_call_fails(small, monkeypatch):
    """A forward call that is not a step would be timed as one: the fit must fail."""
    wl = workloads.TrainSc16(SCOP, 12345)
    real = SCOP.train.evaluate

    def extra(model, x, y):
        model.forward(x[:3].astype(np.float16))
        return real(model, x, y)

    monkeypatch.setattr(SCOP.train, "evaluate", extra)
    gate = Gate({})
    wl.run(wl.unit(0), gate)
    assert gate.bad == {"fit"} and "steps timed" in gate.failures[0]


def test_blas_threads_are_set_whatever_the_environment(monkeypatch):
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, "1")
    nproc = run.cap_blas_threads()
    assert all(run.os.environ[var] == str(nproc) for var in run.BLAS_VARS)


def test_run_fed_one_flipped_bit_reports_incorrect(monkeypatch, capsys):
    assert load_goldens("outer_grid", 0), "goldens for the default seed are missing"
    real = SCOP.engine.outer_product

    def flipped(job):
        out = real(job)
        entries = _flip_first_bit(out.entries)
        return SCOP.engine.UpdateMatrix(entries, out.rng_draws, out.scale)

    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(SCOP.engine, "outer_product", flipped)
    assert run.main(["--workload", "outer_grid", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(workloads.SHAPES) + workloads.ZERO_JOBS


def test_seed_without_goldens_checks_the_anchor_round(monkeypatch, capsys):
    """A flipped bit in an unsampled entry escapes the scalar route, not the anchor."""
    assert not load_goldens("stats_batch", 12345)
    real = SCOP.oracle.empirical_stats

    def flipped(*args, **kwargs):
        out = real(*args, **kwargs)
        return SCOP.oracle.EstimatorStats(out.mean, _flip_first_bit(out.variance),
                                          out.trials, out.confidence_halfwidth)

    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(SCOP.oracle, "empirical_stats", flipped)
    assert run.main(["--workload", "stats_batch", "--seed", "12345", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    assert detail["anchor_seed"] == run.ANCHOR_SEED and detail["anchor_ops"] == 1
    assert result["correct"] is False and result["attempted"] == 2 and result["failed"] >= 1
    assert any("from golden" in why for why in detail["failures"])


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_are_plain_and_match_the_spec(small, tmp_path):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = e2e + per_layer + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)

    wl = workloads.OuterGrid(SCOP, 1)
    metrics, _, _ = run.run_timed(wl, Gate({}), 0.0)
    assert ["setup_s", *metrics] == e2e
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())

    layer, _, _ = run.run_traced(SCOP, wl, Gate({}), 0.0, tmp_path / "spans.npz")
    assert sorted(layer) == sorted(per_layer)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == u for k, (_, u) in layer.items())
