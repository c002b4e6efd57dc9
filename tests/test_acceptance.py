"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; add -s to see the measured numbers next to their bounds.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from scop.engine import OuterProductJob, outer_product
from scop.lfsr import PERIOD, Lfsr
from scop.oracle import (
    analytic_moments,
    effective_probability,
    empirical_stats,
    enumerate_unit_cell,
    exact_outer,
)
from scop.train import TrainingConfig, train
from scop.unit_cell import shift_pack


def test_acceptance_generator_full_period():
    """Seed 0xACE1 returns after exactly 65535 emissions, hitting every
    nonzero word once, in under a second."""
    t0 = time.perf_counter()
    rng = Lfsr(0xACE1)
    seen = np.zeros(1 << 16, dtype=bool)
    for _ in range(PERIOD):
        seen[rng.next_word()] = True
    elapsed = time.perf_counter() - t0
    assert rng.register == 0xACE1, "did not return to the seed"
    assert int(seen.sum()) == PERIOD and not seen[0], "missed or repeated words"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"PASS full period: 65535 words, return to seed, {elapsed:.3f}s")


def test_acceptance_shift_pack_exactness():
    """All counts 0..2048 x exponents -14..4 pack bit-for-bit identically to
    multiply-then-quantize, in under a second."""
    t0 = time.perf_counter()
    counts = np.arange(2049, dtype=np.float64)
    checked = 0
    for e in range(-14, 5):
        pos = np.ldexp(counts, e).astype(np.float16).view(np.uint16)
        neg = np.ldexp(-counts, e).astype(np.float16).view(np.uint16)
        neg[0] = 0x0000  # empty overlap packs +0 regardless of sign
        for c in range(2049):
            assert shift_pack(0, c, e).bits == int(pos[c]), (c, e)
            assert shift_pack(1, c, e).bits == int(neg[c]), (c, e)
            checked += 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"PASS shift-pack exactness: {checked} cases bit-identical, {elapsed:.3f}s")


def test_acceptance_small_instance_brute_force():
    """Exhaustive enumeration over a 4-bit word space for M in {1, 2}
    reproduces the closed-form moments exactly (zero tolerance), once the
    closed form is fed each operand's exact probability on that grid."""
    cases = [
        (0.6, -0.7), (0.5, 0.5), (-0.25, 0.8), (1.0, 1.0),
        (0.0, 0.9), (-1.0, 0.03125),
    ]
    checked = 0
    for m in (1, 2):
        for x, d in cases:
            mean_bf, var_bf = enumerate_unit_cell(x, d, 0, 0, m, word_bits=4)
            # operand with the same ideal probability the 4-bit grid realizes
            px = effective_probability(x, 0, 4)
            pd = effective_probability(d, 0, 4)
            x_eff = float(px) if x >= 0 else -float(px)
            d_eff = float(pd) if d >= 0 else -float(pd)
            mean_cf, var_cf = analytic_moments(x_eff, d_eff, 0, 0, m)
            assert Fraction(mean_cf) == mean_bf, (x, d, m)
            assert Fraction(var_cf) == var_bf, (x, d, m)
            checked += 1
    print(f"PASS brute force: {checked} operand/M cases match exactly")


def test_acceptance_unbiasedness_at_scale():
    """x = 0.6, delta = -0.7, E = 0, M = 16, 10,000 seed pairs: mean within
    +/-0.01 of -0.42 and variance within 10% of the analytic value."""
    x = np.array([0.6], dtype=np.float16)
    d = np.array([-0.7], dtype=np.float16)
    t0 = time.perf_counter()
    stats = empirical_stats(x, d, 16, trials=10_000)
    elapsed = time.perf_counter() - t0
    mean = float(stats.mean[0, 0])
    var = float(stats.variance[0, 0])
    _, analytic_var = analytic_moments(float(x[0]), float(d[0]), 0, 0, 16)
    assert abs(mean - (-0.42)) <= 0.01, f"mean {mean:.5f}"
    assert abs(var - analytic_var) <= 0.10 * analytic_var, (
        f"variance {var:.6f} vs analytic {analytic_var:.6f}"
    )
    print(
        f"PASS unbiasedness: mean {mean:.5f} (target -0.42 +/- 0.01), "
        f"variance {var:.6f} vs analytic {analytic_var:.6f} (10%), {elapsed:.2f}s"
    )


def test_acceptance_draw_audit():
    """A 256x256 outer product at M = 8 draws exactly 16 words, and the count
    does not change with vector width."""
    draws = {}
    for n in (1, 64, 256):
        x = np.linspace(0.01, 1.0, n).astype(np.float16)
        d = np.linspace(-1.0, -0.01, n).astype(np.float16)
        out = outer_product(OuterProductJob(x, d, 8, 0xACE1, 0x2C9F))
        assert out.entries.shape == (n, n)
        draws[n] = out.rng_draws
    assert draws == {1: 16, 64: 16, 256: 16}, draws
    print(f"PASS draw audit: 16 draws at N in {{1, 64, 256}} -> {draws}")


def test_acceptance_outer_product_accuracy():
    """64-dim uniform [-1, 1] vectors, M = 16, 1,000 seed pairs: per-entry
    empirical mean within 3 standard errors of the exact outer product for
    at least 95% of the 4,096 entries."""
    rng = np.random.default_rng(0xE55)
    x = rng.uniform(-1.0, 1.0, 64).astype(np.float16)
    d = rng.uniform(-1.0, 1.0, 64).astype(np.float16)
    t0 = time.perf_counter()
    stats = empirical_stats(x, d, 16, trials=1_000)
    elapsed = time.perf_counter() - t0
    exact = exact_outer(x.astype(np.float64), d.astype(np.float64))
    half = 3.0 * np.sqrt(stats.variance / stats.trials)
    within = np.abs(stats.mean - exact) <= half
    frac = float(within.mean())
    assert frac >= 0.95, f"only {frac:.4f} of entries within 3 half-widths"
    print(
        f"PASS outer accuracy: {frac * 100:.2f}% of {within.size} entries "
        f"within 3 half-widths, {elapsed:.2f}s"
    )


def test_acceptance_toy_training_fidelity():
    """Two-moons (n = 2000, noise 0.1), 5 seeds: mean final test accuracy of
    stochastic(16) within 2 points of exact, stochastic(8) within 3,
    stochastic(2) within 6, and monotone ordering with 1 point of slack.
    Under 5 minutes total."""
    modes = ["exact", "stochastic(16)", "stochastic(8)", "stochastic(2)"]
    t0 = time.perf_counter()
    means = {}
    for mode in modes:
        accs = []
        for i in range(5):
            cfg = TrainingConfig(
                mode=mode,
                epochs=200,
                n_samples=2000,
                noise=0.1,
                seed_data=7 + i,
                seed_init=11 + i,
                seed_sc=0x1000 + i,
            )
            metrics = train(cfg)
            assert not metrics.diverged, (mode, i)
            accs.append(metrics.final_test_acc)
        means[mode] = float(np.mean(accs))
    elapsed = time.perf_counter() - t0

    exact = means["exact"]
    s16, s8, s2 = (
        means["stochastic(16)"], means["stochastic(8)"], means["stochastic(2)"]
    )
    assert exact >= 0.95, means  # baseline must actually learn the task
    assert abs(exact - s16) <= 0.02, means
    assert abs(exact - s8) <= 0.03, means
    assert abs(exact - s2) <= 0.06, means
    assert s16 >= s8 - 0.01 and s8 >= s2 - 0.01, means
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    print(
        "PASS training fidelity: exact {:.4f}, s16 {:.4f}, s8 {:.4f}, "
        "s2 {:.4f}, {:.0f}s".format(exact, s16, s8, s2, elapsed)
    )


def test_acceptance_cli_determinism(tmp_path):
    """Two identical cmd_outer invocations write byte-identical files."""
    import subprocess
    import sys

    from scop.formats import write_vector

    xp = str(tmp_path / "x.bin")
    dp = str(tmp_path / "d.bin")
    write_vector(xp, np.array([0.3, -0.9, 0.5], dtype=np.float16))
    write_vector(dp, np.array([0.7, -0.1], dtype=np.float16))
    outs = []
    for name in ("a.bin", "b.bin"):
        out = str(tmp_path / name)
        r = subprocess.run(
            [
                sys.executable, "-m", "scop.cli", "outer",
                "--x", xp, "--delta", dp, "--seq-len", "16",
                "--seed-x", "ACE1", "--seed-delta", "1234", "--out", out,
            ],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]
    print(f"PASS determinism: {len(outs[0])} bytes, identical across runs")


def test_acceptance_zero_annihilation():
    """A zero operand produces exactly zero all the way through the stack."""
    from scop.encoder import StochasticSequence, encode
    from scop.unit_cell import unit_cell_multiply

    seq = encode(0.0, 0, Lfsr(0xACE1), 16)
    assert seq.bits == 0 and seq.sign == 0

    dense = StochasticSequence(0xFFFF, 1, 16)
    cell = unit_cell_multiply(seq, dense, -4)
    assert cell.count == 0 and cell.value == 0.0

    x = np.array([0.5, 0.0, -0.75], dtype=np.float16)
    d = np.array([0.0, -0.5], dtype=np.float16)
    out = outer_product(OuterProductJob(x, d, 16, 0xACE1, 0x1234))
    assert not out.entries[:, 1].any(), "zero scalar leaked through"
    assert not out.entries[0, :].any(), "zero scalar leaked through"

    zero_vec = outer_product(
        OuterProductJob(np.zeros(3, dtype=np.float16), d, 16, 0xACE1, 0x1234)
    )
    assert not zero_vec.entries.any() and zero_vec.rng_draws == 0
    print("PASS zero annihilation: encode, cell, and engine all emit zeros")
