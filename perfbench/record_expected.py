"""Rewrite perfbench/expected.json from the program as it stands.

    python3 perfbench/record_expected.py

Runs the warm-up and every operation of the default seed, at the run length
in BENCHMARK.json, checks each one against the independent references, and
records its output lines. Re-record only after a deliberate change to a
root, digest, round count or pinned step, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.prepare()
    import workloads

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    recorded = {}
    cwd = os.getcwd()
    try:
        for workload in workloads.WORKLOADS:
            passes = workloads.passes_for(workload, seconds)
            runner = run.Runner(workload, run.DEFAULT_SEED, passes, expected={})
            runner.setup()
            run.measure(runner, enumerate(runner.plan.ops))
            if runner.failures:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            recorded[workload] = runner.lines
    finally:
        os.chdir(cwd)
    run.EXPECTED.write_text(json.dumps(recorded, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
