"""Statement reach of the benchmark's workloads in `src/opml`.

    python tests/traffic.py

Starts `linetrace`'s tracer, then imports `opml.cli` and runs one seed-1
pass of each `perfbench` workload, its warm-up op and its ops, in-process
with the benchmark's hash scheme, in a temporary directory that
`perfbench/workloads.build` fills. Each op must exit 0. Prints each
`src/opml` statement that no workload ran, so a change can see which code
the benchmark exercises. Exits 1 when an op exits nonzero.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import linetrace  # noqa: E402

SEED, PASSES = 1, 1


def main() -> int:
    linetrace.pytest_configure(None)  # starts the tracer before opml is imported
    from opml import cli
    import workloads

    os.environ["OPML_HASH"] = "sha256"  # the benchmark's scheme
    failed, ops, start = [], 0, time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="opml-traffic-") as tmp:
        for name in workloads.WORKLOADS:
            plan = workloads.build(name, SEED, PASSES)
            workdir = Path(tmp) / name
            workdir.mkdir()
            for file, blob in plan.files.items():
                (workdir / file).write_bytes(blob)
            os.chdir(workdir)  # commands name their files relative to it
            for op in [plan.warmup, *plan.ops]:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(op.argv))
                ops += 1
                if code != 0:
                    failed.append(f"{name}: opml {' '.join(op.argv)} exited {code}")
        os.chdir(ROOT)
    sys.settrace(None)
    seconds = time.perf_counter() - start
    missed = linetrace.unrun()
    for file, line, text in missed:
        print(f"{file}:{line}: {text}")
    print(f"{ops} ops in {seconds:.1f} s; {len(missed)} src/opml statements unrun")
    for failure in failed:
        print(failure)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
