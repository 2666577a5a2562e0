#!/usr/bin/env python3
"""Record the held-out quality that bench/run.py checks against.

Usage: python3 bench/make_reference.py FIRST_SEED LAST_SEED > bench/reference.json

For every workload and seed in [FIRST_SEED, LAST_SEED], runs one pass of the
workload's commands, checks its outputs as bench/run.py does, and records
heldout_re and heldout_f1. For seeds that have no entry, run.py checks
against the envelope (re_max, f1_min) that envelope() derives.
Run it only on code whose quality is the accepted baseline.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import ROOT, WORKLOADS, Checks, Workload, dgd, remove_work, run_child


def envelope(seeds):
    """Per-seed quality plus the bounds for unrecorded seeds: the worst recorded
    value, widened by half the recorded range."""
    re = [q["heldout_re"] for q in seeds.values()]
    f1 = [q["heldout_f1"] for q in seeds.values()]
    return {
        "re_max": max(re) + (max(re) - min(re)) / 2,
        "f1_min": min(f1) - (max(f1) - min(f1)) / 2,
        "seeds": seeds,
    }


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    work = ROOT / ".bench_work" / "reference"
    reference = {}
    try:
        for name in WORKLOADS:
            seeds = {}
            for seed in range(first, last + 1):
                shutil.rmtree(work, ignore_errors=True)
                (work / "run").mkdir(parents=True)
                w = Workload(name, seed, work)
                checks = Checks()
                deadline = time.monotonic() + 600
                stdouts = {step: run_child(dgd(*args), work, deadline, checks).stdout
                           for step, args in w.steps(work / "run")}
                quality, _ = w.outputs(work / "run", stdouts, checks)
                if checks.fatal:
                    print(f"{name} seed {seed}: {checks.failures}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = quality
                print(f"{name} seed {seed}: {quality}", file=sys.stderr)
            reference[name] = envelope(seeds)
    finally:
        remove_work(work)
    print(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
