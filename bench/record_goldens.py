#!/usr/bin/env python3
"""Record the output digest of every distinct op into bench/goldens.json.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/record_goldens.py 0 31 [workload ...]

records seeds 0 to 31 of the named workloads, or of all of them. Each recorded op also passes the
scalar-route cross-check first; the script refuses to record an op that
fails it.
"""

from __future__ import annotations

import json
import sys

import run


def record(workload: str, seed: int) -> dict[str, str]:
    from gate import Gate

    wl = run.set_up(workload, seed)[1]
    gate = Gate({})
    for k in range(wl.distinct_units()):
        wl.run(wl.unit(k), gate)
    wl.scalar_checks(gate)
    if gate.bad:
        raise SystemExit(f"{workload} seed {seed}: {gate.failures}")
    return gate.expected


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    run.cap_blas_threads()
    from gate import GOLDENS

    table = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    for workload in argv[2:] or run.WORKLOADS:
        for seed in range(first, last + 1):
            table.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(workload, seed, flush=True)
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
