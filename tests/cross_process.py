"""Check that opml gives the same bytes in every process.

    python tests/cross_process.py OUTDIR

Plays `opml run`, `opml dispute` and `opml verify-witness` on the fixture
model and on synthetic programs, each in a fresh process of this checkout,
and writes every stdout, output tensor, trace dump, transcript and witness
bundle into OUTDIR. Outputs that must agree are compared byte for byte: a
traced run with an untraced one, under each hash scheme. Then this process
serves several commands through one `opml.cli.main`, with warm memos and
OPML_HASH switched between them, and each stdout and witness bundle must
equal that of the same command in a fresh process.

Exits 1 on any mismatch and as soon as a command exits non-zero. Run it
under two PYTHONHASHSEED values and `diff -r` the two directories: a result
that depends on string hashing differs between them.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
DATA = ["--model", "tests/data/mlp.opml", "--input", "tests/data/mlp-input.tensor"]
TWO_PHASE_7 = ["dispute", *DATA, "--protocol", "two-phase", "--faulty", "challenger",
               "--fault-node", "7"]
SINGLE_9 = ["dispute", *DATA, "--fault-node", "9", "--k", "2", "--m", "4"]
#: (stdout file, OPML_HASH, argv) of the commands one process serves in turn;
#: `{out}` in an argument stands for OUTDIR.
ONE_PROCESS = [
    ("run", "sha256", ["run", *DATA]),
    ("run-blake2b", "blake2b", ["run", *DATA]),
    ("run-sha3", "sha3", ["run", *DATA]),
    ("run-again", "sha256", ["run", *DATA]),
    ("single-9", "sha256", [*SINGLE_9, "--witness-out", "{out}/one-process-w-single-9.bin"]),
    ("two-phase-7", "sha256", TWO_PHASE_7),
    ("security", "sha256", ["security", "--p", "0.5", "--m", "1:5"]),
    ("two-phase-7-blake2b", "blake2b", TWO_PHASE_7),
    ("two-phase-7-again", "sha256", TWO_PHASE_7),
    ("single-9-again", "sha256",
     [*SINGLE_9, "--witness-out", "{out}/one-process-w-single-9-again.bin"]),
]


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    mismatches = []

    def at(name: str) -> str:
        return str(out / name)

    def opml(stdout: str, *argv: str, scheme: str | None = None) -> None:
        env = {k: v for k, v in os.environ.items() if k != "OPML_HASH"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        if scheme is not None:
            env["OPML_HASH"] = scheme
        with open(at(stdout), "wb") as fh:
            code = subprocess.run([sys.executable, "-m", "opml.cli", *argv], env=env,
                                  stdout=fh).returncode
        if code != 0:
            sys.exit(f"opml {' '.join(argv)} exited {code}")

    def same(a: str, b: str) -> None:
        if Path(at(a)).read_bytes() != Path(at(b)).read_bytes():
            mismatches.append(f"{a} and {b} differ")

    opml("run.txt", "run", *DATA, "--out", at("output.tensor"), "--dump-trace", at("trace.txt"))
    opml("run-untraced.txt", "run", *DATA, "--out", at("output-untraced.tensor"))
    same("run.txt", "run-untraced.txt")
    same("output.tensor", "output-untraced.tensor")
    for scheme in ("blake2b", "sha3"):
        opml(f"run-{scheme}.txt", "run", *DATA, "--dump-trace", at(f"trace-{scheme}.txt"),
             scheme=scheme)
        opml(f"run-{scheme}-untraced.txt", "run", *DATA, scheme=scheme)
        same(f"run-{scheme}.txt", f"run-{scheme}-untraced.txt")
        opml(f"two-phase-5-{scheme}.txt", "dispute", *DATA, "--protocol", "two-phase",
             "--fault-node", "5", "--k", "3", "--m", "4",
             "--transcript", at(f"two-phase-5-{scheme}.jsonl"), scheme=scheme)
        opml(f"two-phase-junk-{scheme}.txt", "dispute", *DATA, "--protocol", "two-phase",
             "--strategy", "wrong-midpoint", "--faulty", "challenger", "--fault-node", "4",
             "--k", "3", "--m", "4", "--wrong-round", "3",
             "--transcript", at(f"two-phase-junk-{scheme}.jsonl"), scheme=scheme)
        opml(f"synthetic-long-{scheme}.txt", "dispute", "--synthetic-n", "5000", "--strategy",
             "fault", "--k", "3", "--m", "4096", "--seed", "2",
             "--transcript", at(f"synthetic-long-{scheme}.jsonl"),
             "--witness-out", at(f"w-long-{scheme}.bin"), scheme=scheme)
        # The bundle names its scheme, so the check runs under the default.
        opml(f"verify-long-{scheme}.txt", "verify-witness", "--file", at(f"w-long-{scheme}.bin"))

    two_phase = ["dispute", *DATA, "--protocol", "two-phase"]
    opml("two-phase.txt", *two_phase, "--fault-node", "2", "--transcript", at("two-phase.jsonl"))
    opml("two-phase-5.txt", *two_phase, "--fault-node", "5", "--k", "3", "--m", "4",
         "--transcript", at("two-phase-5.jsonl"))
    opml("two-phase-9.txt", *two_phase, "--fault-node", "9", "--m", "4096",
         "--transcript", at("two-phase-9.jsonl"))
    opml("two-phase-random.txt", *two_phase, "--strategy", "random", "--faulty", "challenger",
         "--k", "2", "--seed", "4", "--transcript", at("two-phase-random.jsonl"))
    opml("two-phase-phase1.txt", *two_phase, "--fault-node", "2", "--strategy", "silent",
         "--silent-after", "0", "--transcript", at("two-phase-phase1.jsonl"))
    opml("single.txt", "dispute", *DATA, "--fault-node", "9", "--k", "2", "--m", "4",
         "--transcript", at("single.jsonl"), "--witness-out", at("w-single.bin"))
    opml("verify-single.txt", "verify-witness", "--file", at("w-single.bin"))
    opml("synthetic.txt", "dispute", "--synthetic-n", "200", "--strategy", "fault", "--seed", "3",
         "--transcript", at("synthetic.jsonl"), "--witness-out", at("w.bin"))
    opml("verify.txt", "verify-witness", "--file", at("w.bin"))
    opml("synthetic-long.txt", "dispute", "--synthetic-n", "5000", "--strategy", "fault",
         "--k", "3", "--m", "4096", "--seed", "2", "--transcript", at("synthetic-long.jsonl"),
         "--witness-out", at("w-long.bin"))
    opml("synthetic-wrong.txt", "dispute", "--synthetic-n", "3000", "--strategy",
         "wrong-midpoint", "--k", "1024", "--seed", "6", "--transcript",
         at("synthetic-wrong.jsonl"), "--witness-out", at("w-wrong.bin"))

    # One process serves several commands with one parser and a warm memo
    # of program images, which its games have proved into, switching
    # OPML_HASH between them.
    sys.path.insert(0, SRC)
    from opml.cli import main as opml_main

    for name, scheme, argv in ONE_PROCESS:
        os.environ["OPML_HASH"] = scheme
        with open(at(f"one-process-{name}.txt"), "w") as fh, contextlib.redirect_stdout(fh):
            code = opml_main([arg.format(out=out) for arg in argv])
        if code != 0:
            sys.exit(f"one process: {name} exited {code}")

    opml("fresh-run.txt", "run", *DATA)
    opml("fresh-two-phase-7.txt", *TWO_PHASE_7)
    opml("fresh-security.txt", "security", "--p", "0.5", "--m", "1:5")
    opml("fresh-single-9.txt", *SINGLE_9, "--witness-out", at("fresh-w-single-9.bin"))
    for name in ("run", "two-phase-7", "security", "single-9"):
        same(f"one-process-{name}.txt", f"fresh-{name}.txt")
    same("one-process-run-again.txt", "fresh-run.txt")
    same("one-process-two-phase-7-again.txt", "fresh-two-phase-7.txt")
    # A game's stdout names no digest, so a game under blake2b, after memos
    # warmed under sha256, must print what a fresh sha256 process does.
    same("one-process-two-phase-7-blake2b.txt", "fresh-two-phase-7.txt")
    same("one-process-single-9-again.txt", "fresh-single-9.txt")
    for name in ("single-9", "single-9-again"):
        same(f"one-process-w-{name}.bin", "fresh-w-single-9.bin")
    for scheme in ("blake2b", "sha3"):
        same(f"one-process-run-{scheme}.txt", f"run-{scheme}-untraced.txt")

    for line in mismatches:
        print(line, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(main(Path(sys.argv[1]).resolve()))
