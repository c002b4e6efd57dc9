"""CLI tests: golden output, determinism, exit codes.

Most run scop.cli.main in this process, so an uncaught exception or warning
fails the test outright; the lfsr golden, its exit-2 twin and the console
script tests start a process, so module entry and process exit codes stay
covered.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scop import cli
from scop.encoder import vector_exponent
from scop.formats import read_matrix, write_vector
from scop.oracle import analytic_moments, empirical_stats


def run_cli(*args):
    """scop.cli.main(args) in this process -> its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's exit 2, or --help's 0
            code = exc.code or 0
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_module(*args):
    """`python -m scop.cli args` in a new process."""
    return subprocess.run(
        [sys.executable, "-m", "scop.cli", *args], capture_output=True, text=True
    )


def input_error(r) -> str:
    """Asserts exit 2 and a stderr of one `error: ...` line; returns that line."""
    assert r.returncode == 2, r.stderr
    (line,) = r.stderr.splitlines()
    assert line.startswith("error: ")
    return line


def test_lfsr_golden_words():
    r = run_module("lfsr", "--seed", "ACE1", "--count", "4")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["0877", "fb62", "b2b0", "e3e5"]


def test_lfsr_zero_seed_exit_2():
    r = run_module("lfsr", "--seed", "0", "--count", "4")
    assert "seed" in input_error(r)


def test_lfsr_bad_hex_exit_2():
    r = run_cli("lfsr", "--seed", "zz", "--count", "1")
    assert r.returncode == 2


def test_encode_golden():
    r = run_cli(
        "encode", "--value", "0.5", "--seq-len", "8", "--seed", "ACE1",
        "--exponent", "0",
    )
    assert r.returncode == 0
    lines = dict(l.split("=", 1) for l in r.stdout.splitlines())
    assert lines["sign"] == "0"
    assert lines["bits"] == "0xd1"
    assert lines["popcount"] == "4"
    assert lines["probability"] == "0.5"


def test_encode_zero_value():
    r = run_cli("encode", "--value", "0", "--seq-len", "16", "--seed", "1234")
    lines = dict(l.split("=", 1) for l in r.stdout.splitlines())
    assert lines["bits"] == "0x0000"
    assert lines["popcount"] == "0"


def test_encode_out_of_range_exit_2():
    r = run_cli(
        "encode", "--value", "1.5", "--seq-len", "8", "--seed", "ACE1",
        "--exponent", "0",
    )
    input_error(r)


@pytest.mark.parametrize("value, exponent", [("0", "1024"), ("3", "1100")])
def test_encode_exponent_past_the_float_range(value, exponent):
    r = run_cli("encode", "--value", value, "--seq-len", "4", "--seed", "1",
                "--exponent", exponent)
    assert r.returncode == 0 and r.stderr == ""
    lines = dict(l.split("=", 1) for l in r.stdout.splitlines())
    assert (lines["bits"], lines["probability"]) == ("0x0", "0.0")


def test_encode_exponent_below_the_value_exit_2():
    r = run_cli("encode", "--value", "1e-300", "--seq-len", "4", "--seed", "1",
                "--exponent", "-1100")
    assert "2^-1100" in input_error(r)


def test_encode_seq_len_above_cell_bound_exit_2():
    r = run_cli("encode", "--value", "0.5", "--seq-len", "5000", "--seed", "ACE1")
    assert "seq_len" in input_error(r)


def test_mul_example():
    r = run_cli(
        "mul", "--a-bits", "c", "--a-sign", "0", "--b-bits", "a",
        "--b-sign", "1", "--seq-len", "4", "--scale-exp", "-2",
    )
    assert r.returncode == 0
    lines = dict(l.split("=", 1) for l in r.stdout.splitlines())
    assert lines["count"] == "1"
    assert lines["sign"] == "1"
    assert lines["value"] == "-0.25"


def test_mul_bits_wider_than_seq_len_exit_2():
    r = run_cli(
        "mul", "--a-bits", "fff", "--a-sign", "0", "--b-bits", "1",
        "--b-sign", "0", "--seq-len", "4", "--scale-exp", "0",
    )
    input_error(r)


def test_mul_scale_far_below_the_subnormal_range():
    r = run_cli(
        "mul", "--a-bits", "1", "--b-bits", "1", "--seq-len", "1",
        "--scale-exp", "-1000000000000000000",
    )
    assert r.returncode == 0
    assert "underflow=1" in r.stdout.splitlines()
    assert r.stderr == ""


def test_mul_huge_seq_len_exit_2():
    r = run_cli(
        "mul", "--a-bits", "1", "--b-bits", "1",
        "--seq-len", "99999999999999999999", "--scale-exp", "0",
    )
    assert "seq_len" in input_error(r)


@pytest.fixture
def vectors(tmp_path):
    xp = str(tmp_path / "x.bin")
    dp = str(tmp_path / "d.bin")
    write_vector(xp, np.array([0.5, -0.5], dtype=np.float16), "bin")
    write_vector(dp, np.array([1.0], dtype=np.float16), "bin")
    return xp, dp


def test_outer_golden_and_audit(vectors, tmp_path):
    xp, dp = vectors
    out = str(tmp_path / "u.bin")
    r = run_cli(
        "outer", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "1234", "--out", out,
    )
    assert r.returncode == 0
    assert r.stderr == "rng_draws=32 f_scale_exponent=-5\n"
    mat = read_matrix(out)
    assert mat.tolist() == [[0.5, -0.5]]


@pytest.mark.parametrize("lr, x, line", [
    ("0.1", [0.5, -0.5], "rng_draws=32 f_scale_exponent=-9"),  # floor-pow2(0.1 * 2^-5)
    (None, [0.0, 0.0], "rng_draws=0 f_scale_exponent=none"),  # a dead job has no scale
])
def test_outer_audit_line(tmp_path, lr, x, line):
    xp, dp, out = (str(tmp_path / name) for name in ("x.bin", "d.bin", "u.bin"))
    write_vector(xp, np.array(x, dtype=np.float16), "bin")
    write_vector(dp, np.array([1.0], dtype=np.float16), "bin")
    r = run_cli(
        "outer", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "1234", "--out", out,
        *(("--lr", lr) if lr else ()),
    )
    assert r.returncode == 0
    assert r.stderr == line + "\n"


def test_outer_byte_identical_reruns(vectors, tmp_path):
    xp, dp = vectors
    out1 = str(tmp_path / "u1.bin")
    out2 = str(tmp_path / "u2.bin")
    args = [
        "outer", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--seed-x", "BEEF", "--seed-delta", "1357",
    ]
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_outer_csv_output(vectors, tmp_path):
    xp, dp = vectors
    out = str(tmp_path / "u.csv")
    r = run_cli(
        "outer", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "1234",
        "--out", out, "--format", "csv",
    )
    assert r.returncode == 0
    assert Path(out).read_text() == "0.5,-0.5\n"


def test_outer_same_seeds_exit_2(vectors, tmp_path):
    xp, dp = vectors
    r = run_cli(
        "outer", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "ACE1",
        "--out", str(tmp_path / "u.bin"),
    )
    input_error(r)


def test_outer_missing_file_exit_2(tmp_path):
    r = run_cli(
        "outer", "--x", str(tmp_path / "nope.bin"),
        "--delta", str(tmp_path / "nope.bin"), "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "1234",
        "--out", str(tmp_path / "u.bin"),
    )
    input_error(r)


def test_outer_non_utf8_csv_exit_2(vectors, tmp_path):
    _, dp = vectors
    xp = tmp_path / "x.csv"
    xp.write_bytes(b"0.5\n\xff\xfe0.25\n")
    r = run_cli(
        "outer", "--x", str(xp), "--delta", dp, "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "1234",
        "--out", str(tmp_path / "u.bin"),
    )
    assert str(xp) in input_error(r)


def test_stats_report(vectors, tmp_path):
    xp, dp = vectors
    report = str(tmp_path / "report.json")
    r = run_cli(
        "stats", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--trials", "200", "--report", report,
    )
    assert r.returncode == 0
    data = json.loads(Path(report).read_text())
    assert data["trials"] == 200
    assert data["lr"] is None  # unfolded
    assert len(data["entries"]) == 2
    for entry in data["entries"]:
        assert set(entry) >= {
            "row", "col", "mean", "variance", "ci_halfwidth",
            "analytic_mean", "analytic_variance", "within_ci",
        }
    # full-scale operands are deterministic: exact agreement, zero width
    assert data["entries"][0]["mean"] == data["entries"][0]["analytic_mean"]


def test_stats_lr_report_equals_the_library_call(tmp_path):
    xp, dp = str(tmp_path / "x.csv"), str(tmp_path / "d.csv")
    x = np.array([0.75, -0.3, 0.0], dtype=np.float16)
    d = np.array([0.2, -1.5], dtype=np.float16)
    write_vector(xp, x, "csv")
    write_vector(dp, d, "csv")
    report = str(tmp_path / "report.json")
    r = run_cli(
        "stats", "--x", xp, "--delta", dp, "--seq-len", "24", "--trials", "50",
        "--seed-x", "1111", "--lr", "0.1", "--report", report,
    )
    assert r.returncode == 0, r.stderr
    stats = empirical_stats(x, d, 24, 50, 0x1111, 0x2C9F, lr=0.1)
    e_x, e_d = vector_exponent(x), vector_exponent(d)
    data = json.loads(Path(report).read_text())
    assert data["lr"] == 0.1
    entries = data["entries"]
    assert [(e["row"], e["col"]) for e in entries] == [(j, i) for j in range(2) for i in range(3)]
    for e in entries:
        j, i = e["row"], e["col"]
        assert e["mean"] == stats.mean[j, i]
        assert e["variance"] == stats.variance[j, i]
        assert e["ci_halfwidth"] == stats.confidence_halfwidth[j, i]
        assert (e["analytic_mean"], e["analytic_variance"]) == analytic_moments(
            float(x[i]), float(d[j]), e_x, e_d, 24, 0.1
        )
    plain = empirical_stats(x, d, 24, 50, 0x1111, 0x2C9F)
    assert not np.array_equal(plain.mean, stats.mean)  # the lr reached the engine


@pytest.mark.parametrize("lr", ["0", "-0.5", "nan", "inf", "5e-324"])
def test_stats_bad_lr_exit_2(vectors, tmp_path, lr):
    xp, dp = vectors
    r = run_cli(
        "stats", "--x", xp, "--delta", dp, "--seq-len", "16", "--trials", "4",
        "--lr", lr, "--report", str(tmp_path / "report.json"),
    )
    assert "lr" in input_error(r)


@pytest.fixture
def wide_vectors(tmp_path):
    """x = (3.5, -1.25) and delta = (2, 0.5): E_X + E_D = 3, so the scale is lr * 2^3 / M."""
    xp, dp = tmp_path / "x.csv", tmp_path / "d.csv"
    xp.write_text("3.5\n-1.25\n")
    dp.write_text("2\n0.5\n")
    return str(xp), str(dp)


@pytest.mark.parametrize("command, tail", [
    ("outer", ["--out", "{out}"]),
    ("stats", ["--trials", "4", "--report", "{out}"]),
])
def test_lr_whose_scale_overflows_exit_2(wide_vectors, tmp_path, command, tail):
    xp, dp = wide_vectors
    r = run_cli(
        command, "--x", xp, "--delta", dp, "--seq-len", "16", "--seed-x", "1",
        "--seed-delta", "2", "--lr", "1e308",
        *(arg.format(out=tmp_path / "out") for arg in tail),
    )
    assert input_error(r).startswith("error: scale at lr = 1e+308: ")


def test_stats_report_writes_an_overflowing_variance_as_null(wide_vectors, tmp_path):
    """F is about 2^995 at lr = 1e300, so F^2 is past float64; the report stays strict JSON."""
    xp, dp = wide_vectors
    report = tmp_path / "r.json"
    r = run_cli(
        "stats", "--x", xp, "--delta", dp, "--seq-len", "16", "--trials", "4",
        "--lr", "1e300", "--report", str(report),
    )
    assert r.returncode == 0, r.stderr

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    entries = json.loads(report.read_text(), parse_constant=refuse)["entries"]
    assert len(entries) == 4
    for e in entries:
        assert e["analytic_variance"] is None
        assert abs(e["analytic_mean"]) > 1e299  # the mean stays a number


def test_train_smoke_and_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "topology = 2,8,2\n"
        "epochs = 2\n"
        "n_samples = 200\n"
        "mode = stochastic(8)\n"
        "seed_data = 3\n"
    )
    outdir = tmp_path / "out"
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(outdir))
    assert r.returncode == 0, r.stderr
    assert "final_test_acc=" in r.stdout
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["mode"] == "stochastic(8)"
    assert summary["epochs_run"] == 2
    csv_lines = (outdir / "metrics.csv").read_text().splitlines()
    assert csv_lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(csv_lines) == 3
    jsonl = [json.loads(l) for l in (outdir / "metrics.jsonl").read_text().splitlines()]
    assert [e["epoch"] for e in jsonl] == [0, 1]


@pytest.mark.parametrize("mode", ["exact", "stochastic(16)"])
def test_train_diverging_fit_prints_only_its_result(tmp_path, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lr = 60000\nn_samples = 200\nepochs = 5\nmode = {mode}\n")
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert r.returncode == 0
    (line,) = r.stdout.splitlines()
    assert f"mode={mode}" in line and "diverged=1" in line
    assert r.stderr == ""


BAD_SEED_RUNS = {
    "lfsr": ["lfsr", "--seed", "10000", "--count", "1"],
    "encode": ["encode", "--value", "0.5", "--seq-len", "8", "--seed", "0"],
    "outer": [
        "outer", "--x", "{x}", "--delta", "{d}", "--seq-len", "16",
        "--seed-x", "10001", "--seed-delta", "1234", "--out", "{out}",
    ],
    "stats": [
        "stats", "--x", "{x}", "--delta", "{d}", "--seq-len", "16",
        "--trials", "4", "--seed-delta", "0", "--report", "{out}",
    ],
    "train": ["train", "--config", "{cfg}", "--out-dir", "{out}"],
}


@pytest.mark.parametrize("command", BAD_SEED_RUNS)
def test_bad_seed_exit_2(vectors, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = stochastic(8)\nseed_sc = 0x10000\n")
    xp, dp = vectors
    paths = dict(x=xp, d=dp, out=str(tmp_path / "out"), cfg=str(cfg))
    r = run_cli(*(arg.format(**paths) for arg in BAD_SEED_RUNS[command]))
    assert "seed" in input_error(r)


def test_train_bad_config_names_field(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 0\n")
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert "epochs" in input_error(r)


@pytest.mark.parametrize("line", ["seed_data = -1", "seed_init = -1", "noise = nan"])
def test_train_bad_config_value_exit_2_before_training(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"epochs = 1\nn_samples = 40\n{line}\n")
    out = tmp_path / "o"
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(out))
    assert line.split()[0] in input_error(r)
    assert not (out / "metrics.csv").exists()


def test_train_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert "learning_rate" in input_error(r)


def _console_script_target(name):
    """The `module:attr` target that pyproject.toml declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    return scripts[name].split(":")


def test_console_script_entry_point():
    # Run the declared [project.scripts] target the way the installed
    # wrapper does, so the check needs no installed `scop` executable.
    module, attr = _console_script_target("scop")
    r = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "lfsr", "--seed", "ACE1", "--count", "1",
        ],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "0877"


@pytest.mark.skipif(
    shutil.which("scop") is None, reason="no installed `scop` executable on PATH"
)
def test_installed_console_script():
    r = subprocess.run(
        ["scop", "lfsr", "--seed", "ACE1", "--count", "1"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "0877"


def test_train_non_utf8_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs = 1\n\xff\n")
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert str(cfg) in input_error(r)


def test_outer_csv_value_beyond_binary16_exit_2(vectors, tmp_path):
    _, dp = vectors
    xp = tmp_path / "x.csv"
    xp.write_text("0.5\n70000\n")
    r = run_cli(
        "outer", "--x", str(xp), "--delta", dp, "--seq-len", "16",
        "--seed-x", "ACE1", "--seed-delta", "1234", "--out", str(tmp_path / "u.bin"),
    )
    assert input_error(r) == f"error: {xp}:2: 70000.0 is beyond binary16's range"


def test_stats_trials_beyond_2_to_the_31_exit_2(vectors, tmp_path):
    xp, dp = vectors
    r = run_cli(
        "stats", "--x", xp, "--delta", dp, "--seq-len", "16",
        "--trials", "99999999999999999999",
        "--report", str(tmp_path / "report.json"),
    )
    assert input_error(r).startswith("error: trials must be an integer")
