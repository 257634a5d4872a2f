#!/usr/bin/env python3
"""Determinism test of the verdict benchmark.

Run from the root of a source checkout:

    python3 verdictbench/test_determinism.py

Runs every workload twice with the same seed and a fixed number of units
(--verdicts), and checks that the work counts the benchmark prints
(states, edges, activations, messages, arena paths, skips, findings) repeat exactly,
and that both runs pass their correctness checks.  Exits 1 on any
difference.
"""

import json
import subprocess
import sys

# Units per run: verdicts, cold checks, fixpoints (a batch of 8 and one of
# 2), hunt candidates (the hunt rounds up to a whole period of seeds).
UNITS = {"fig6-deep": 1, "serve-mixed": 6, "bgp-100k": 10, "hunt-sweep": 60}
SEED = 5


def run(workload):
    cmd = [sys.executable, "verdictbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "0",
           "--verdicts", str(UNITS[workload])]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    counts = [l for l in lines if l.startswith("counts:")]
    result = json.loads(lines[-1]) if lines else {}
    return out.returncode, counts, result


def main():
    bad = 0
    for workload in UNITS:
        first, second = run(workload), run(workload)
        same = first[1] == second[1] and first[1] != []
        ok = all(rc == 0 and r.get("correct") is True
                 for rc, _, r in (first, second))
        print("%-12s %s %s  %s" % (workload, "same" if same else "DIFFERENT",
                                   "correct" if ok else "FAILED",
                                   first[1][0] if first[1] else "no counts"))
        if not same:
            print("  second run: %s" % (second[1],))
        bad += (not same) + (not ok)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
