"""The benchmark's workloads: seeded inputs, units of work and their checks.

A unit is what the timed loop repeats: one outer_product job, one
empirical_stats call, or one train fit. Each unit returns its ops (the job,
the call, or each minibatch step) with their host times, the simulated events and
samples they covered, and the host time of the unit's program calls. Output
checks run outside the timed calls. The program receives only the generated
inputs; the workload seed never reaches it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from gate import Gate, digest, scalar_entries, scalar_moments

SHAPES = tuple((n, m) for n in (64, 256, 1024) for m in (16, 256, 2048))
ROUNDS = 8  # distinct rounds per seed; the timed loop cycles through them
# With 4 zero-operand jobs beside the 9 real ones, the 13-job round puts the
# median op in the middle of the 3rd-fastest shape group and p90 70% into the
# 8th, away from the gaps between groups.
ZERO_JOBS = 4
LRS = (0.1, 0.05, 0.01)
ORDER_SEED = 0x5EED
CELLS_PER_JOB = 3

STATS_POOL = 8
STATS_N = 64
STATS_SEQ_LEN = 16
STATS_TRIALS = 1000
CELLS_PER_STATS = 2

TRAIN_MODE = "stochastic(16)"
TRAIN_EPOCHS = 10


@dataclass
class UnitResult:
    op_seconds: list[float] = field(default_factory=list)
    op_keys: list[str] = field(default_factory=list)
    seconds: float = 0.0  # host time inside the unit's program calls
    events: int = 0  # simulated AND/popcount events, sum of N_D * N_X * M
    samples: int = 0


def _span(rec, name: str):
    """A span of the traced run, or nothing when rec is None."""
    return nullcontext() if rec is None else rec.span(name)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def operand(rng: np.random.Generator, n: int, lo_exp: int, hi_exp: int) -> np.ndarray:
    """Signed binary16 vector over a wide magnitude range, about 5% exact zeros."""
    mag = np.exp2(rng.uniform(-8.0, 0.0, n) + int(rng.integers(lo_exp, hi_exp)))
    vals = np.where(rng.random(n) < 0.5, -mag, mag)
    vals[rng.random(n) < 0.05] = 0.0
    return vals.astype(np.float16)


def _seed_pair(rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct nonzero 16-bit generator seeds."""
    sx = int(rng.integers(1, 1 << 16))
    sd = int(rng.integers(1, (1 << 16) - 1))
    return sx, sd + (sd >= sx)


@dataclass
class Job:
    key: str
    x: np.ndarray
    d: np.ndarray
    seq_len: int
    seed_x: int
    seed_d: int
    lr: float | None
    cells: list[tuple[int, int]]

    @property
    def live(self) -> bool:
        """False when an operand is all zero and the job short-circuits."""
        return bool(self.x.any()) and bool(self.d.any())

    @property
    def events(self) -> int:
        """Simulated AND/popcount events; a short-circuited job has none."""
        return self.x.size * self.d.size * self.seq_len if self.live else 0


class OuterGrid:
    """Single outer_product jobs over every N x M, a fixed share all-zero.

    A unit is one job. The timed loop stops only at the end of a round, so
    every shape is timed equally often.
    """

    name = "outer_grid"

    def __init__(self, scop, seed: int):
        self.scop = scop
        rng = _rng(seed, 1)
        self.jobs = [job for r in range(ROUNDS) for job in self._round(rng, r)]
        self.round_size = len(self.jobs) // ROUNDS
        self.seen: dict[str, tuple] = {}
        self.draws: dict[str, int] = {}

    def _round(self, rng, r: int) -> list[Job]:
        jobs = []
        zero_slots = {(4 * r + k) % len(SHAPES): k for k in range(ZERO_JOBS)}
        for s, (n, m) in enumerate(SHAPES):
            for zero in (False, True) if s in zero_slots else (False,):
                x = operand(rng, n, -8, 5)
                d = operand(rng, n, -8, 5)
                if zero:
                    (x if zero_slots[s] % 2 else d)[:] = 0
                lr = float(rng.choice(LRS)) if (r + s) % 3 == 0 else None
                cells = [tuple(int(v) for v in rng.integers(0, n, 2))
                         for _ in range(CELLS_PER_JOB)]
                key = f"r{r}.{n}x{m}" + (".zero" if zero else "")
                jobs.append(Job(key, x, d, m, *_seed_pair(rng), lr, cells))
        # A job that follows a large one runs up to 1.5x slower, so the order
        # of shapes in round r is the same for every seed.
        order = np.random.default_rng([ORDER_SEED, r]).permutation(len(jobs))
        return [jobs[i] for i in order]

    def warm_up(self) -> None:
        # one small job per stream length, so lazy per-M state is built here
        for m in sorted({m for _, m in SHAPES}):
            x = np.full(8, 0.5, dtype=np.float16)
            self.scop.engine.outer_product(
                self.scop.engine.OuterProductJob(x, x, m, 0xACE1, 0x1234, 0.1)
            )

    def unit(self, k: int) -> Job:
        return self.jobs[k % len(self.jobs)]

    def run(self, job: Job, gate: Gate, rec=None) -> UnitResult:
        engine = self.scop.engine
        try:
            t0 = perf_counter()
            with _span(rec, "bench"):
                with _span(rec, "engine.OuterProductJob"):
                    spec = engine.OuterProductJob(
                        job.x, job.d, job.seq_len, job.seed_x, job.seed_d, job.lr)
                out = engine.outer_product(spec)
            dt = perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            gate.fail(job.key, f"raised {exc!r}")
            out, dt = None, 0.0
        if out is not None:
            self.draws[job.key] = out.rng_draws
            self.check(job, out, gate)
        return UnitResult([dt], [job.key], dt, job.events, 1)

    def check(self, job: Job, out, gate: Gate) -> None:
        entries = np.asarray(out.entries)
        shape = (job.d.size, job.x.size)
        if not gate.check_equal(job.key, "entries", (entries.shape, entries.dtype),
                                (shape, np.dtype(np.float16))):
            return
        bits = entries.view(np.uint16)
        gate.check_equal(job.key, "rng_draws", out.rng_draws,
                         2 * job.seq_len if job.live else 0)
        gate.check_digest(job.key, digest(bits, int(out.rng_draws)))
        if job.key not in self.seen:
            self.seen[job.key] = (job, [int(bits[j, i]) for j, i in job.cells])

    def scalar_checks(self, gate: Gate) -> None:
        for key, (job, got) in self.seen.items():
            if not job.live:
                gate.check_equal(key, "zero-operand entries", got, [0] * len(got))
                continue
            want = scalar_entries(self.scop, job.x, job.d, job.seq_len, job.seed_x,
                                  job.seed_d, job.lr, job.cells)
            gate.check_equal(key, f"entries at {job.cells}", got, want)
            gate.scalar_entries += len(got)

    def distinct_units(self) -> int:
        return len(self.jobs)

    def detail(self) -> dict:
        rounds = [self.jobs[i:i + self.round_size]
                  for i in range(0, len(self.jobs), self.round_size)]
        per_round = {sum(self.draws[j.key] for j in r) for r in rounds
                     if all(j.key in self.draws for j in r)}
        return {"jobs_per_round": self.round_size, "rng_draws_per_round": sorted(per_round)}


@dataclass
class StatsCall:
    key: str
    x: np.ndarray
    d: np.ndarray
    base_x: int
    base_d: int
    cells: list[tuple[int, int]]


class StatsBatch:
    """empirical_stats on 64x64 vectors at M=16 with 1,000 trials per call."""

    name = "stats_batch"
    round_size = 1

    def __init__(self, scop, seed: int):
        self.scop = scop
        rng = _rng(seed, 2)
        self.pool = []
        for p in range(STATS_POOL):
            x = operand(rng, STATS_N, -4, 3)
            d = operand(rng, STATS_N, -4, 3)
            cells = [tuple(int(v) for v in rng.integers(0, STATS_N, 2))
                     for _ in range(CELLS_PER_STATS)]
            self.pool.append(StatsCall(f"p{p}", x, d, *_seed_pair(rng), cells))
        self.seen: dict[str, tuple] = {}

    def warm_up(self) -> None:
        c = self.pool[0]
        self.scop.oracle.empirical_stats(c.x, c.d, STATS_SEQ_LEN, 2, c.base_x, c.base_d)

    def unit(self, k: int) -> StatsCall:
        return self.pool[k % STATS_POOL]

    def run(self, c: StatsCall, gate: Gate, rec=None) -> UnitResult:
        oracle = self.scop.oracle
        res = UnitResult()
        try:
            t0 = perf_counter()
            with _span(rec, "bench"):
                out = oracle.empirical_stats(c.x, c.d, STATS_SEQ_LEN, STATS_TRIALS,
                                             c.base_x, c.base_d)
            dt = perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            gate.fail(c.key, f"raised {exc!r}")
            out, dt = None, 0.0
        res.op_seconds.append(dt)
        res.op_keys.append(c.key)
        res.seconds = dt
        res.events = STATS_N * STATS_N * STATS_SEQ_LEN * STATS_TRIALS
        res.samples = STATS_TRIALS
        if out is not None:
            self.check(c, out, gate)
        return res

    def check(self, c: StatsCall, out, gate: Gate) -> None:
        arrays = [np.asarray(a, dtype=np.float64)
                  for a in (out.mean, out.variance, out.confidence_halfwidth)]
        gate.check_equal(c.key, "trials", out.trials, STATS_TRIALS)
        gate.check_digest(c.key, digest(*arrays, int(out.trials)))
        if c.key not in self.seen:
            mean, var = arrays[0], arrays[1]
            self.seen[c.key] = (c, [(float(mean[j, i]), float(var[j, i]))
                                    for j, i in c.cells])

    def scalar_checks(self, gate: Gate) -> None:
        for key, (c, got) in self.seen.items():
            want = scalar_moments(self.scop, c.x, c.d, STATS_SEQ_LEN, STATS_TRIALS,
                                  c.base_x, c.base_d, c.cells)
            gate.check_equal(key, f"moments at {c.cells}", got, want)
            gate.scalar_entries += len(got)

    def distinct_units(self) -> int:
        return STATS_POOL

    def detail(self) -> dict:
        return {"trials_per_call": STATS_TRIALS, "pool": STATS_POOL}


class TrainSc16:
    """One two-moons fit of the 2-16-2 net with stochastic(16) weight updates."""

    name = "train_sc16"
    round_size = 1

    def __init__(self, scop, seed: int):
        self.scop = scop
        rng = _rng(seed, 3)
        self.config = scop.train.TrainingConfig(
            mode=TRAIN_MODE,
            epochs=TRAIN_EPOCHS,
            seed_data=int(rng.integers(0, 1 << 31)),
            seed_init=int(rng.integers(0, 1 << 31)),
            seed_sc=int(rng.integers(1, 1 << 16)),
        )
        c = self.config
        data = scop.datasets.generate_two_moons(c.n_samples, c.noise, c.seed_data)
        self.n_test = data.x_test.shape[0]
        self.n_train = data.x_train.shape[0]
        self.steps_per_epoch = -(-self.n_train // c.batch_size)
        topo = c.topology
        self.cells_per_sample = sum(a * b for a, b in zip(topo[:-1], topo[1:]))
        self.seq_len = scop.train.parse_mode(c.mode)[1]
        self.final_test_acc: set[float] = set()

    def warm_up(self) -> None:
        c = self.config
        self.scop.train.train(self.scop.train.TrainingConfig(
            mode=c.mode, epochs=1, n_samples=64, seed_data=c.seed_data,
            seed_init=c.seed_init, seed_sc=c.seed_sc))

    def unit(self, k: int):
        return self.config

    def run(self, config, gate: Gate, rec=None) -> UnitResult:
        """One fit; untraced, each Mlp.forward call is time-stamped to time steps."""
        train = self.scop.train
        base = train.Mlp
        models, stamps = [], []

        class Recording(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

            if rec is None:
                def forward(self, x):
                    stamps.append((perf_counter(), len(x)))
                    return base.forward(self, x)

        res = UnitResult()
        metrics = None
        train.Mlp = Recording
        try:
            t0 = perf_counter()
            with _span(rec, "bench"):
                metrics = train.train(config)
            res.seconds = perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            gate.fail("fit", f"raised {exc!r}")
        finally:
            train.Mlp = base

        steps = config.epochs * self.steps_per_epoch
        if rec is None:
            # a step runs from its forward call to the next forward call
            res.op_seconds = [t1 - t0 for (t0, rows), (t1, _) in zip(stamps, stamps[1:])
                              if rows != self.n_test]
        else:
            # a traced fit is not split into steps; each step still counts as an op
            res.op_seconds = [0.0] * steps
        if metrics is not None:
            res.samples = config.epochs * self.n_train
            res.events = res.samples * self.cells_per_sample * self.seq_len
            if not models:
                gate.fail("fit", "the fit built no model through train.Mlp")
            elif len(res.op_seconds) != steps:
                gate.fail("fit", f"{len(res.op_seconds)} steps timed, the fit has {steps}")
            else:
                self.check(models[-1], metrics, gate)
        if not res.op_seconds:
            res.op_seconds = [res.seconds]
        res.op_keys = ["fit"] * len(res.op_seconds)
        return res

    def check(self, model, metrics, gate: Gate) -> None:
        per_epoch = np.array([(e.train_loss, e.train_acc, e.test_acc)
                              for e in metrics.epochs], dtype=np.float64)
        gate.check_equal("fit", "epochs", len(metrics.epochs), self.config.epochs)
        gate.check_digest("fit", digest(*model.weights, *model.biases, per_epoch,
                                        metrics.final_test_acc, metrics.diverged))
        self.final_test_acc.add(metrics.final_test_acc)

    def scalar_checks(self, gate: Gate) -> None:
        pass

    def distinct_units(self) -> int:
        return 1

    def detail(self) -> dict:
        return {"epochs": self.config.epochs, "final_test_acc": sorted(self.final_test_acc)}


WORKLOADS = {w.name: w for w in (OuterGrid, StatsBatch, TrainSc16)}
