"""Command-line front end.

Subcommands map one-to-one onto the library layers: lfsr (raw words),
encode (one operand's bitstream), mul (one cell), outer (a full job),
stats (estimator quality report), train (the toy harness). Output is
plain text or the file formats from formats.py; audit counters go to
stderr so stdout stays machine-readable.

Exit codes: 0 success, 2 bad input or configuration, 3 internal
consistency violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .encoder import StochasticSequence, encode, probability_of, vector_exponent
from .engine import OuterProductJob, outer_product
from .errors import ContractError, DomainError
from .fp16 import PowerOfTwoScale
from .formats import read_vector, write_matrix
from .lfsr import Lfsr
from .oracle import analytic_moments, empirical_stats
from .train import load_config, train, write_metrics_csv, write_metrics_jsonl
from .unit_cell import unit_cell_multiply

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3


def _hex(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a hex number, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scop",
        description="Bit-exact stochastic-computing outer-product model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lfsr", help="emit pseudo-random words")
    p.add_argument("--seed", type=_hex, required=True, help="hex, nonzero")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_lfsr)

    p = sub.add_parser("encode", help="encode one value as a bitstream")
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--seed", type=_hex, required=True)
    p.add_argument(
        "--exponent",
        type=int,
        default=None,
        help="normalization exponent; default: smallest E with |value| <= 2^E",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("mul", help="multiply two packed bitstreams")
    p.add_argument("--a-bits", type=_hex, required=True)
    p.add_argument("--a-sign", type=int, choices=(0, 1), default=0)
    p.add_argument("--b-bits", type=_hex, required=True)
    p.add_argument("--b-sign", type=int, choices=(0, 1), default=0)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--scale-exp", type=int, required=True)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("outer", help="run one outer-product job")
    p.add_argument("--x", required=True, help="vector file (bin or csv)")
    p.add_argument("--delta", required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--seed-x", type=_hex, required=True)
    p.add_argument("--seed-delta", type=_hex, required=True)
    p.add_argument("--lr", type=float, default=None, help="fold into the scale")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=cmd_outer)

    p = sub.add_parser("stats", help="estimator quality over many seed pairs")
    p.add_argument("--x", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed-x", type=_hex, default=0xACE1)
    p.add_argument("--seed-delta", type=_hex, default=0x2C9F)
    p.add_argument("--lr", type=float, default=None, help="fold into the scale")
    p.add_argument("--report", required=True, help="JSON output path")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the toy network")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    return parser


def cmd_lfsr(args) -> int:
    if args.count < 0:
        raise DomainError("count must be nonnegative")
    rng = Lfsr(args.seed)
    for _ in range(args.count):
        print(f"{rng.next_word():04x}")
    return EXIT_OK


def cmd_encode(args) -> int:
    exponent = args.exponent
    if exponent is None:
        exponent = vector_exponent([args.value])
    seq = encode(args.value, exponent, Lfsr(args.seed), args.seq_len)
    width = (args.seq_len + 3) // 4
    print(f"sign={seq.sign}")
    print(f"bits=0x{seq.bits:0{width}x}")
    print(f"popcount={seq.popcount}")
    print(f"exponent={exponent}")
    print(f"probability={probability_of(args.value, exponent)!r}")
    return EXIT_OK


def cmd_mul(args) -> int:
    a = StochasticSequence(args.a_bits, args.a_sign, args.seq_len)
    b = StochasticSequence(args.b_bits, args.b_sign, args.seq_len)
    result = unit_cell_multiply(a, b, PowerOfTwoScale(args.scale_exp))
    print(f"count={result.count}")
    print(f"sign={result.sign}")
    print(f"bits=0x{result.bits:04x}")
    print(f"value={result.value!r}")
    if result.overflow:
        print("overflow=1")
    if result.underflow:
        print("underflow=1")
    return EXIT_OK


def cmd_outer(args) -> int:
    x = read_vector(args.x)
    delta = read_vector(args.delta)
    job = OuterProductJob(
        x, delta, args.seq_len, args.seed_x, args.seed_delta, args.lr
    )
    result = outer_product(job)
    write_matrix(args.out, result.entries, args.format)
    scale = "none" if result.scale is None else str(result.scale.exponent)
    print(
        f"rng_draws={result.rng_draws} f_scale_exponent={scale}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    x = read_vector(args.x)
    delta = read_vector(args.delta)
    stats = empirical_stats(
        x, delta, args.seq_len, args.trials, args.seed_x, args.seed_delta, args.lr
    )
    e_x = vector_exponent(x)
    e_d = vector_exponent(delta)
    entries = []
    for j in range(delta.size):
        for i in range(x.size):
            a_mean, a_var = analytic_moments(
                float(x[i]), float(delta[j]),
                e_x, e_d, args.seq_len, args.lr,
            )
            mean = float(stats.mean[j, i])
            hw = float(stats.confidence_halfwidth[j, i])
            entries.append(
                {
                    "row": j,
                    "col": i,
                    "mean": mean,
                    "variance": float(stats.variance[j, i]),
                    "ci_halfwidth": hw,
                    "analytic_mean": a_mean,
                    "analytic_variance": a_var if math.isfinite(a_var) else None,
                    "within_ci": bool(abs(mean - a_mean) <= hw),
                }
            )
    report = {
        "seq_len": args.seq_len,
        "trials": args.trials,
        "lr": args.lr,  # None when unfolded
        "entries": entries,
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    covered = sum(e["within_ci"] for e in entries)
    print(f"entries={len(entries)} within_ci={covered}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_config(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    metrics = train(config)
    write_metrics_csv(metrics, os.path.join(args.out_dir, "metrics.csv"))
    write_metrics_jsonl(metrics, os.path.join(args.out_dir, "metrics.jsonl"))
    summary = {
        "mode": metrics.mode,
        "epochs_run": len(metrics.epochs),
        "final_test_acc": metrics.final_test_acc,
        "diverged": metrics.diverged,
    }
    with open(os.path.join(args.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(
        f"mode={metrics.mode} final_test_acc={metrics.final_test_acc:.4f}"
        f" diverged={int(metrics.diverged)}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
