"""Mutation gate for the step semantics and the memory tree.

    python tests/mutants.py

The prover and the verifier agree by construction because both run
`fpvm._execute`, so a bug there is one both sides share; only tests against
the ISA in docs/formats.md and the goldens can catch it. Each entry of
`MUTANTS` is a named exact source edit that must match once in its file.
For the unmutated checkout and then for each edit, this copies the checkout
(without `.git` and caches) to a temporary directory, applies the edit and
runs `python -m pytest -q -x -p no:cacheprovider tests` there, with
PYTHONPATH set to the copy's `src` so an installed opml is not imported.

The unmutated copy must pass. A mutant is killed when its run fails, and
survives when it passes. Exits 1 on a survivor, on an edit that does not
match exactly once, or when the unmutated copy fails; prints each mutant's
time and the first test that failed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FPVM, MERKLE = "src/opml/fpvm.py", "src/opml/merkle.py"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks")
TIMEOUT_S = 900

#: (name, file, old, new): replace the one occurrence of `old` in `file`.
MUTANTS = [
    # The step semantics, against the ISA.
    ("sra-shift-mask", FPVM, "sign32(regs[rs]) >> (imm & 31)", "sign32(regs[rs]) >> (imm & 15)"),
    ("blt-unsigned-compare", FPVM, "if sign32(regs[rs]) < sign32(regs[rt])",
     "if regs[rs] < regs[rt]"),
    ("jmp-link-pc-plus-8", FPVM, "value = pc + 4\n", "value = pc + 8\n"),
    ("mulfx-b-unsigned", FPVM, "* (b - ((b & 0x8000_0000) << 1))", "* b"),
    ("halt-mask-7f", FPVM, "return pc, True, imm & 0xFF, steps",
     "return pc, True, imm & 0x7F, steps"),
    ("preimage-region-bound", FPVM, "if regs[rd] >= _ORACLE_VALUE_LEAVES:",
     "if regs[rd] > _ORACLE_VALUE_LEAVES:"),
    ("li-straddling-immediate", FPVM, 'mem.read_leaf(next_pc & ~31, "missing-li-leaf")',
     'mem.read_leaf(pc & ~31, "missing-li-leaf")'),
    ("beq-offset-base", FPVM, "pc = (pc + 4 + 4 * imm) & MASK32 if regs[rs] == regs[rt]",
     "pc = (pc + 4 * imm) & MASK32 if regs[rs] == regs[rt]"),
    ("r0-write-guard", FPVM, "if rd:  # r0 is hardwired to zero", "if True:"),
    ("and-as-or", FPVM, "value = regs[rs] & regs[rt]", "value = regs[rs] | regs[rt]"),
    ("lw-register-before-align-trap", FPVM,
     "if addr & 3:\n                return pc, True, TRAP_BAD_ALIGN, steps\n"
     "            value = _unpack_word(",
     "if addr & 3:\n                regs[rd] = addr\n                return pc, True, TRAP_BAD_ALIGN, steps\n"
     "            value = _unpack_word("),
    # The fetch leaf a block reuses.
    ("no-fetch-leaf-clear-after-sw", FPVM,
     "addr, regs[rt]))\n            pc, code_base = next_pc, -1",
     "addr, regs[rt]))\n            pc = next_pc"),
    ("no-fetch-leaf-clear-after-preimage", FPVM,
     "value_chunk)\n            pc, code_base = next_pc, -1",
     "value_chunk)\n            pc = next_pc"),
    # The run view and the stepping loop.
    ("block-reads-from-sealed-tree", FPVM, "self.start.leaf_block(", "self.tree.leaf_block("),
    ("put-leaf-skips-leaf-dict", FPVM,
     "        self.leaves[base] = leaf\n        self.writes[base >> 5] = leaf\n",
     "        self.writes[base >> 5] = leaf\n"),
    ("yield-register-list", FPVM, "yield VmState(pc, kept,", "yield VmState(pc, regs,"),
    ("stale-register-tuple", FPVM, "            kept = now\n", "            now = kept\n"),
    ("budget-error-register-list", FPVM, "BudgetExceededError(VmState(pc, tuple(regs),",
     "BudgetExceededError(VmState(pc, regs,"),
    # The one tree writer and its pending versions.
    ("leaf-block-overwrites-out", MERKLE, "out.setdefault(32 * (first + offset), leaf)",
     "out[32 * (first + offset)] = leaf"),
    ("top-merges-newest-first", MERKLE, "for version in reversed(chain):",
     "for version in chain:"),
    ("top-writes-unsorted", MERKLE, "for index, leaf in sorted(writes.items())]",
     "for index, leaf in writes.items()]"),
    ("top-zero-leaf-as-bytes", MERKLE, "items = [(index, None if leaf == ZERO_LEAF else leaf)",
     "items = [(index, leaf)"),
    ("set-keeps-childless-copy", MERKLE,
     "    if left is None and right is None:\n        return None\n    return _Node(left, right)",
     "    return _Node(left, right)"),
    ("set-side-from-first-item", MERKLE, "if not (last >> level) & 1:",
     "if not (items[0][0] >> level) & 1:"),
    ("set-cut-at-first-items-half", MERKLE, "bisect_left(items, (last >> level << level,))",
     "bisect_left(items, (items[0][0] >> level << level,))"),
    ("set-all-right-only-for-one-item", MERKLE, "elif (items[0][0] >> level) & 1:",
     "elif len(items) == 1:"),
    # The region image: its reads, its level-order hash and its one build.
    ("image-slice-start-off-by-one-leaf", MERKLE, "chunk = self.data[32 * first :",
     "chunk = self.data[32 * first + 32 :"),
    ("image-kept-digests-one-level-off", MERKLE, "kept[level - KEEP_LEVEL] if",
     "kept[level - KEEP_LEVEL - 1] if"),
    ("image-last-leaf-unpadded", MERKLE,
     "        if len(chunk) % 32:\n            leaves[-1] = leaves[-1].ljust(32, b\"\\x00\")\n", ""),
    ("image-hashes-zero-leaves", MERKLE,
     "digests = [None if leaf == ZERO_LEAF else scheme.leaf_hash(leaf) for",
     "digests = [scheme.leaf_hash(leaf) for"),
    ("image-rebuilt-on-each-access", MERKLE, "return (self._children or self._build())[0]",
     "return self._build()[0]"),
    ("image-hash-ignores-its-nodes", MERKLE,
     "if self._digest is None and self._children is not None:", "if False:"),
    ("all-zero-region-as-image", MERKLE, "if data.count(0) == len(data):", "if not data:"),
]


def run_suite(edit: tuple[str, str, str] | None) -> tuple[bool, str, float]:
    """(passed, first failing test or reason, seconds) of tier-1 on a fresh
    copy of the checkout with `edit` (file, old, new) applied."""
    with tempfile.TemporaryDirectory(prefix="opml-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if edit is not None:
            path = copy / edit[0]
            path.write_text(path.read_text().replace(edit[1], edit[2], 1))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return True, "", seconds
    if proc.returncode not in (1, 2):  # 1: a test failed, 2: collection or import error
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return False, failed.group(1) if failed else proc.stdout.strip().splitlines()[-1], seconds


def main() -> int:
    stale = [name for name, file, old, _ in MUTANTS
             if (ROOT / file).read_text().count(old) != 1]
    if stale:
        print("edits that do not match exactly once:", ", ".join(stale))
        return 1
    start = time.perf_counter()
    passed, why, seconds = run_suite(None)
    print(f"unmutated: {'passed' if passed else 'FAILED ' + why} in {seconds:.1f} s", flush=True)
    if not passed:
        return 1
    survivors = []
    for name, file, old, new in MUTANTS:
        passed, why, seconds = run_suite((file, old, new))
        if passed:
            survivors.append(name)
        print(f"{name}: {'SURVIVED' if passed else 'killed by ' + why} in {seconds:.1f} s",
              flush=True)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    if survivors:
        print("survivors:", ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
