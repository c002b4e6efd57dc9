#!/usr/bin/env python3
"""Host-time benchmark of the scop package.

Run from the repository root:

    python3 bench/run.py --workload outer_grid --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

    outer_grid   single outer_product jobs over N in {64, 256, 1024} x
                 M in {16, 256, 2048}, some with an all-zero operand
    stats_batch  oracle.empirical_stats on 64x64 vectors, M=16, 1,000 trials
    train_sc16   train.train of the 2-16-2 two-moons net in stochastic(16)

With --trace 0 the run times whole units of work for --seconds and reports
the end-to-end metrics. With --trace 1 it runs each unit once plainly and
once with every layer boundary wrapped in a span, and reports per-layer self
times and counts per unit plus the tracing overhead. Both modes check every
op's output bits. Times are in reference seconds (see CAL_LOOP). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Earlier lines carry the
environment and run details, which are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("outer_grid", "stats_batch", "train_sc16")
ANCHOR_SEED = 0  # a seed without goldens also checks this seed's first round
SETUP_PROBES = 6  # fresh processes that only set up; setup_s is the median with ours
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The host's clock changes by up to 1.6x for tens of seconds at a time. Every
# host time is therefore reported in reference seconds: measured seconds times
# the loop's CAL_REF_S over the time a calibration loop took next to the
# measurement. Neither loop calls scop. outer_grid's ops spend their time in
# large numpy arrays and slow down with the memory loop, not with the
# pure-Python one (bench/README.md); set-up is scaled by the pure-Python loop.
# CAL_REF_S is a loop's time on a 2-CPU 2.1 GHz Xeon host at its full clock.
CAL_LOOP = {"outer_grid": "memory", "stats_batch": "python", "train_sc16": "python"}
CAL_REF_S = {"python": 0.0030, "memory": 0.0023}
IDLE_WAIT_S = [0.0]  # seconds spent waiting for other threads to go idle


def cap_blas_threads() -> int:
    """Set every BLAS thread count to the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def load_scop():
    """Import scop from this checkout's src/, never from an installed copy."""
    if not (SRC / "scop" / "__init__.py").is_file():
        raise SystemExit(f"bench: no scop package under {SRC}")
    sys.path.insert(0, str(SRC))
    import scop
    import scop.datasets
    import scop.encoder
    import scop.engine
    import scop.lfsr
    import scop.oracle
    import scop.train
    import scop.unit_cell

    if Path(scop.__file__).resolve().parent != SRC / "scop":
        raise SystemExit(f"bench: imported scop from {scop.__file__}, not {SRC}")
    return scop


def set_up(workload: str, seed: int):
    """Import scop, generate the inputs and warm up.

    Returns (scop, workload, seconds, calibration seconds right after). numpy
    and the benchmark's own modules load first and are not counted: no
    change to scop can move them, and numpy's import alone varies by 50%.
    """
    import numpy  # noqa: F401
    from workloads import WORKLOADS as CLASSES

    t0 = time.perf_counter()
    scop = load_scop()
    wl = CLASSES[workload](scop, seed)
    wl.warm_up()
    seconds = time.perf_counter() - t0
    return scop, wl, seconds, calibration_s("python")


def probe_set_up(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, calibration seconds) of fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return samples


def environment(nproc: int, loadavg) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "machine": platform.machine(),
        "loadavg_at_start": list(loadavg),
    }


def wait_for_idle_threads(limit_s: float = 1.0) -> None:
    """Wait until no other thread of this process is running, at most limit_s.

    OpenBLAS workers spin for about 0.1 s after a call returns; a calibration
    loop that runs beside them reads up to 2x slow.
    """
    tasks = Path("/proc/self/task")
    me = str(threading.get_native_id())
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < limit_s:
        busy = False
        for tid in os.listdir(tasks):
            try:
                stat = (tasks / tid / "stat").read_text()
            except OSError:
                continue
            busy |= tid != me and stat[stat.rindex(")") + 2] == "R"
        if not busy:
            break
        time.sleep(0.005)
    IDLE_WAIT_S[0] += time.perf_counter() - t0


@functools.cache
def _memory_loop():
    import numpy as np

    # preallocated, so that the loop's time does not depend on how the
    # program left the allocator
    big = np.random.default_rng(0).random(1 << 17)
    scaled = np.empty_like(big)
    half = np.empty(big.shape, dtype=np.float16)

    def run():
        for _ in range(6):
            np.ldexp(big, 3, out=scaled)
            np.copyto(half, scaled, casting="unsafe")

    return run


def calibration_s(loop: str) -> float:
    """Fastest of five runs of a fixed loop that never calls scop.

    "python" is 50,000 interpreter steps; "memory" scales 1 MiB of float64
    and casts it to float16, six times, into preallocated arrays.
    """
    wait_for_idle_threads()
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        if loop == "python":
            acc = 0
            for i in range(50_000):
                acc += i * i
        else:
            _memory_loop()()
        best = min(best, time.perf_counter() - t0)
    return best


def _end_to_end(units, scales) -> dict:
    """Metrics of timed units, each unit's host times multiplied by its scale."""
    import numpy as np

    op_ms = [t * 1e3 * f for u, f in zip(units, scales) for t in u.op_seconds]
    p50, p90 = np.percentile(op_ms, [50, 90])
    seconds = sum(u.seconds * f for u, f in zip(units, scales))
    return {
        "cell_events_per_s": (sum(u.events for u in units) / seconds, "1/s"),
        "samples_per_s": (sum(u.samples for u in units) / seconds, "1/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
    }


def run_timed(wl, gate, seconds: float):
    """Whole units until `seconds` have passed; end-to-end metrics.

    The calibration loop runs before and after every unit. A unit's host
    times are scaled by the loop's CAL_REF_S over the mean of those two calibration
    times, which takes out the host's clock changes.
    """
    loop = CAL_LOOP[wl.name]
    units, keys, cal = [], [], [calibration_s(loop)]
    deadline = time.perf_counter() + seconds
    while not units or len(units) % wl.round_size or time.perf_counter() < deadline:
        res = wl.run(wl.unit(len(units)), gate)
        cal.append(calibration_s(loop))
        units.append(res)
        keys += res.op_keys
    wl.scalar_checks(gate)
    scales = [2 * CAL_REF_S[loop] / (a + b) for a, b in zip(cal, cal[1:])]
    if not any(u.seconds > 0 for u in units):
        raise SystemExit("bench: every unit raised; nothing was timed")
    metrics = _end_to_end(units, scales)
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MiB")
    raw = {k: v for k, (v, _) in _end_to_end(units, [1.0] * len(units)).items()}
    info = {"units": len(units), "op_samples": sum(len(u.op_seconds) for u in units),
            "calibration_s": statistics.median(cal), "unscaled": raw}
    return metrics, keys, info


def run_traced(scop, wl, gate, seconds: float, spans_path: Path):
    """Each unit once plainly, then once traced; per-layer metrics per unit."""
    from spans import Recorder, installed, layers, per_layer_metrics

    rec = Recorder()
    plain_s = traced_s = 0.0
    loop = CAL_LOOP[wl.name]
    keys, cal = [], [calibration_s(loop)]
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or k % wl.round_size or time.perf_counter() < deadline:
        unit = wl.unit(k)
        res = wl.run(unit, gate)
        plain_s += res.seconds
        keys += res.op_keys
        with installed(rec, layers(scop)):
            res = wl.run(unit, gate, rec)
        traced_s += res.seconds
        keys += res.op_keys
        cal.append(calibration_s(loop))
        k += 1
    wl.scalar_checks(gate)
    rec.save(spans_path)
    scale = CAL_REF_S[loop] / statistics.median(cal)
    metrics = {
        name: (value * scale if unit == "s" else value, unit)
        for name, (value, unit) in per_layer_metrics(
            rec, k // wl.round_size, traced_s, plain_s).items()
    }
    metrics["trace.wall_unscaled_s"] = (metrics["trace.wall_s"][0] / scale, "s")
    info = {"units": k, "spans": len(rec.start), "spans_file": spans_path.name,
            "calibration_s": statistics.median(cal)}
    return metrics, keys, info


def check_anchor(scop, workload: str):
    """Run the first round of ANCHOR_SEED against its goldens.

    A run on a seed without goldens can only compare an op with its own first
    run and a few scalar-route entries; the anchor round checks every output
    bit of the same kinds of op. Returns (op keys, gate).
    """
    from gate import Gate, load_goldens
    from workloads import WORKLOADS as CLASSES

    goldens = load_goldens(workload, ANCHOR_SEED)
    if not goldens:
        raise SystemExit(f"bench: no goldens for anchor seed {ANCHOR_SEED}")
    wl = CLASSES[workload](scop, ANCHOR_SEED)
    gate = Gate(goldens)
    keys = []
    for k in range(wl.round_size):
        keys += wl.run(wl.unit(k), gate).op_keys
    return keys, gate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    loadavg = os.getloadavg()
    nproc = cap_blas_threads()
    if args.setup_probe:
        print(json.dumps(set_up(args.workload, args.seed)[2:]))
        return 0

    probes = [] if args.trace else probe_set_up(args.workload, args.seed)
    scop, wl, *own = set_up(args.workload, args.seed)
    setups = probes + [tuple(own)]
    from gate import Gate, load_goldens

    goldens = load_goldens(args.workload, args.seed)
    gate = Gate(goldens)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, keys, info = run_traced(scop, wl, gate, args.seconds,
                                         OUT / f"spans-{stem}.npz")
    else:
        metrics, keys, info = run_timed(wl, gate, args.seconds)
        setup_s = statistics.median(t * CAL_REF_S["python"] / c for t, c in setups)
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    anchor_keys, anchor = ([], Gate({})) if goldens else check_anchor(scop, args.workload)
    failed = (sum(key in gate.bad for key in keys)
              + sum(key in anchor.bad for key in anchor_keys))
    result = {
        "correct": failed == 0 and not gate.bad and not anchor.bad,
        "attempted": len(keys) + len(anchor_keys),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(nproc, loadavg)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **info,
        "setup_samples_s": [t for t, _ in setups],
        "golden_ops": len(goldens),
        "anchor_seed": None if goldens else ANCHOR_SEED,
        "anchor_ops": len(anchor_keys),
        "scalar_checked_entries": gate.scalar_entries,
        "failures": gate.failures + anchor.failures,
        "idle_wait_s": IDLE_WAIT_S[0],
        **wl.detail(),
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, "detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
