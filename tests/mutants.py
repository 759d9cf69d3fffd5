"""Mutation gate for the step semantics, the memory tree and the verdicts.

    python tests/mutants.py

The prover and the verifier agree by construction because both run
`fpvm._execute`, so a bug there is one both sides share; only tests against
the ISA in docs/formats.md and the goldens can catch it. Each entry of
`MUTANTS` is a named exact source edit that must match once in its file.
For the unmutated checkout and then for each edit, this copies the checkout
(without `.git` and caches) to a temporary directory, applies the edit and
runs `pytest -q -x -p no:cacheprovider tests` there through `CHILD`, with
PYTHONPATH set to the copy's `src` so an installed opml is not imported.
Each run is bounded by TIMEOUT_S and by MEMORY_CAP of address space, which
`setrlimit` sets in the child alone.

The unmutated copy must pass. A mutant is killed when its run fails, runs
out of time or hits the memory cap, and survives when it passes. Exits 1 on
a survivor, on an edit that does not match exactly once, or when the
unmutated copy fails; prints each mutant's time and the first test that
failed, or why the run stopped.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FPVM, MERKLE = "src/opml/fpvm.py", "src/opml/merkle.py"
DISPUTE, MULTIPHASE, WIRE = "src/opml/dispute.py", "src/opml/multiphase.py", "src/opml/wire.py"
ML = "src/opml/ml.py"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks")
TIMEOUT_S = 900
#: Address space of one child pytest: about five times the unmutated
#: suite's own peak (102 MiB of address space, 71 MiB resident, CPython 3.11).
MEMORY_CAP = 512 << 20
#: The child's exit code when pytest itself breaks down on a MemoryError:
#: at the cap that happens where pytest reports, which may print nothing.
#: When the MemoryError breaks a pytest hook instead, pytest exits 3 and
#: prints it as an internal error; both count as hitting the cap.
CAPPED_EXIT = 86
CHILD = f"""import os, sys, pytest
try:
    sys.exit(pytest.main(sys.argv[1:]))
except Exception as exc:
    cause = exc
    while cause is not None and not isinstance(cause, MemoryError):
        cause = cause.__cause__ or cause.__context__
    if cause is None:
        raise
    os._exit({CAPPED_EXIT})
"""

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
    ("yield-register-list", FPVM, "yield VmState(pc, tuple(regs),", "yield VmState(pc, regs,"),
    ("budget-error-register-list", FPVM, "BudgetExceededError(VmState(pc, tuple(regs),",
     "BudgetExceededError(VmState(pc, regs,"),
    # The kept proofs the witness view and the verifier's chain share: made
    # current through the written paths, and hashed up once per write.
    ("kept-sibling-from-own-path", MERKLE, "written.get((index >> level) ^ 1, sibling)",
     "written.get(index >> level, sibling)"),
    ("kept-cache-survives-write", MERKLE, "self._current = {index: (leaf, proof)}",
     "self._current[index] = (leaf, proof)"),
    ("kept-write-drops-leaf", MERKLE, "        self._kept[index] = (leaf, proof)\n", ""),
    ("kept-write-skips-level-0", MERKLE, "            written[level][index >> level] = digest\n",
     "            if level:\n                written[level][index >> level] = digest\n"),
    ("kept-hit-ignores-leaf", MERKLE,
     "if kept is not None and kept[0] == leaf and kept[1].siblings == proof.siblings:",
     "if kept is not None and kept[1].siblings == proof.siblings:"),
    # The verifier's chain: its pre-state skip and its memory root.
    ("chain-skip-checks-fields-only", FPVM, "if f != chain.fields or pre_root != chain.root:",
     "if f != chain.fields:"),
    ("chain-skip-checks-root-only", FPVM, "if f != chain.fields or pre_root != chain.root:",
     "if pre_root != chain.root:"),
    ("chain-keeps-proofs-across-roots", FPVM,
     "if proofs is None or proofs.root != f.memory_root:", "if proofs is None:"),
    # The witness view's seams.
    ("window-ignores-seams", FPVM, "            if n in self.seams:\n", "            if False:\n"),
    ("fork-drops-earlier-seams", FPVM,
     "seams = tuple(seam for seam in self.seams if seam < corrupted.step_count)", "seams = ()"),
    # The one tree writer and its pending versions.
    ("leaf-block-overwrites-out", MERKLE, "out.setdefault(32 * (first + offset), leaf)",
     "out[32 * (first + offset)] = leaf"),
    # Fetches wrong code, so a run heads for MAX_STEPS: killed at the memory cap.
    ("leaf-block-from-image-start", MERKLE, "_block(node, level, first & ((1 << depth) - 1))",
     "_block(node, level, 0)"),
    ("get-leaf-reads-pair-mirror", MERKLE,
     "self.leaf_block(index, 0, out)\n        return out[32 * index]",
     "self.leaf_block(index, 1, out)\n        return out[32 * (index ^ 1)]"),
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
    # The region image: its reads, its level-order hash, and its halves,
    # each made once, over the same bytes, with its kept digest.
    ("image-slice-start-off-by-one-leaf", MERKLE, "chunk = self.data[32 * (self.first + first) :",
     "chunk = self.data[32 * (self.first + first) + 32 :"),
    ("image-last-leaf-unpadded", MERKLE,
     "        if len(chunk) % 32:\n            leaves[-1] = leaves[-1].ljust(32, b\"\\x00\")\n", ""),
    ("image-hashes-zero-leaves", MERKLE,
     "digests = [None if leaf == ZERO_LEAF else scheme.leaf_hash(leaf) for",
     "digests = [scheme.leaf_hash(leaf) for"),
    ("image-opened-before-hashed", MERKLE,
     "        self.digest  # hashed, keeping its table, before it is first opened\n", ""),
    ("image-right-half-at-left-offset", MERKLE, "self.first + (side << level),", "self.first,"),
    ("image-kept-row-one-level-off", MERKLE, "self._kept[level - KEEP_LEVEL][index",
     "self._kept[level - KEEP_LEVEL - 1][index"),
    ("image-kept-index-one-entry-off", MERKLE, "[index : index + 2]", "[index + 1 : index + 3]"),
    ("image-halves-made-on-each-access", MERKLE,
     "        self._children = tuple(halves)\n        return self._children\n",
     "        return tuple(halves)\n"),
    ("image-block-without-kept-digest", MERKLE, "halves[side].digest = digest",
     "halves[side].digest = None"),
    ("all-zero-region-as-image", MERKLE, "if data.count(0) == len(data):", "if not data:"),
    # The memo of program images that every load of a program shares: with
    # room for none, or blind to the region level (its API kept, so only
    # the tests' loads, roots and memo counts can tell).
    ("program-memo-removed", FPVM, "@functools.lru_cache(maxsize=16)\ndef program_image(",
     "@functools.lru_cache(maxsize=0)\ndef program_image("),
    ("program-memo-key-without-level", FPVM, "@functools.lru_cache(maxsize=16)\ndef program_image(",
     "class _AnyLevel(int):\n"
     "    __eq__ = lambda self, other: isinstance(other, _AnyLevel) or int.__eq__(self, other)\n"
     "    __hash__ = lambda self: 0\n\n\n"
     "def _level_blind(memo):\n"
     "    def program_image(program, level, scheme):\n"
     "        return memo(program, _AnyLevel(level), scheme)\n"
     "    program_image.cache_clear, program_image.cache_info = memo.cache_clear, memo.cache_info\n"
     "    return program_image\n\n\n"
     "@_level_blind\n@functools.lru_cache(maxsize=16)\ndef program_image("),
    # The memo of const region roots: keyed by the preimage key, bounded,
    # and the one source of a const entry, in a run and at a public pin.
    ("const-memo-keyed-by-length", ML, "slot = key, scheme",
     "slot = len(serialize_tensor(t)), scheme"),
    ("const-key-without-length-prefix", ML, "key = tensor_key(t, scheme)",
     "key = scheme.digest(serialize_tensor(t))"),
    ("const-root-over-length-prefix", ML, "= tensor_region_root(t, scheme)",
     "= merkle.region_root(tensor_blob(t), fpvm.OUTPUT_LEVEL, scheme)"),
    ("const-memo-never-evicts", ML, "            del _CONST_ROOTS[next(iter(_CONST_ROOTS))]\n",
     "            pass\n"),
    ("const-entry-halves-swapped", ML, "    return key, root\n", "    return root, key\n"),
    ("const-pin-takes-input-entry", MULTIPHASE, "ml.const_entry(node.params, scheme)",
     "ml.const_entry(input_tensor, scheme)"),
    # The root over anchors, hashed along their paths, and the checked write.
    ("anchor-siblings-swapped", MERKLE,
     "scheme.node_hash(digests.get(2 * i, zero), digests.get(2 * i + 1, zero))",
     "scheme.node_hash(digests.get(2 * i + 1, zero), digests.get(2 * i, zero))"),
    ("anchor-at-its-leaf-index", MERKLE, "digests.update((index >> level, digest)",
     "digests.update((index, digest)"),
    ("anchor-at-every-level-above", MERKLE, "for index, at, digest in regions if at == level)",
     "for index, at, digest in regions if at <= level)"),
    ("anchor-root-one-level-short", MERKLE, "if level < TREE_DEPTH:", "if level < TREE_DEPTH - 1:"),
    ("update-leaf-unchecked-index", MERKLE,
     "            raise RangeError(f\"leaf index {index} out of range\")\n        if len(leaf) != 32:",
     "            pass\n        if len(leaf) != 32:"),
    ("update-leaf-unchecked-length", MERKLE, "if len(leaf) != 32:", "if False:"),
    # The verdicts: arbitration, the segment guard, the challenge period and
    # the checkpoints, then the entrance and exit checks of the two-phase game.
    ("short-span-without-halt", DISPUTE,
     "0 < len(witnesses) < span and witnesses[-1].pre_fields.exited)",
     "0 < len(witnesses) < span)"),
    ("span-count-one-over", DISPUTE, "if len(witnesses) != span and not (",
     "if len(witnesses) > span + 1 and not ("),
    ("period-ends-one-late", DISPUTE, "if elapsed >= chain.challenge_period:",
     "if elapsed > chain.challenge_period:"),
    ("period-ignores-open-dispute", DISPUTE, "if claim.claim_id in chain.open_disputes:",
     "if False:"),
    ("checkpoint-at-span-end", DISPUTE, "if i < p < i + j]", "if i < p <= i + j]"),
    ("segment-choice-one-past", DISPUTE, "1 <= submitter_response <= n_segments:",
     "1 <= submitter_response <= n_segments + 1:"),
    ("slash-pays-whole-stake", DISPUTE, "reward = amount * REWARD_BPS // 10_000", "reward = amount"),
    ("entrance-takes-empty-operand", MULTIPHASE, 'if key == b"\\x00" * 32:', "if False:"),
    ("entrance-any-arity", MULTIPHASE,
     '"node has no phase-2 computation"\n    if len(bundle.opening.entries) != len(graph.nodes):',
     '"node has no phase-2 computation"\n    if False:'),
    ("entrance-node-one-past", MULTIPHASE,
     '0 <= bundle.node_id < len(graph.nodes):\n        return False, "node id out of range"\n'
     "    node = graph.nodes[bundle.node_id]",
     '0 <= bundle.node_id <= len(graph.nodes):\n        return False, "node id out of range"\n'
     "    node = graph.nodes[bundle.node_id]"),
    ("exit-any-output-field", MULTIPHASE,
     "if proof.leaf_index != fpvm.OUTPUT_BASE // 32 or proof.subtree_level != fpvm.OUTPUT_LEVEL:",
     "if False:"),
    ("exit-ignores-posted-root", MULTIPHASE, "if bundle.final_state_root != posted_root:",
     "if False:"),
    ("exit-challenger-root-not-posted", MULTIPHASE,
     "else chain.counterclaims[inner_claim.claim_id])",
     "else chal_trace.root_at(len(chal_trace)))"),
    ("exit-fields-unopened", MULTIPHASE,
     "if bundle.vm_fields.state_root(scheme) != bundle.final_state_root:", "if False:"),
    ("entrance-from-any-state", MULTIPHASE,
     "if submitter.roots.root_at(pinned_node) != outcome.session.agreed_root:", "if False:"),
    ("exit-failure-keeps-winner", MULTIPHASE,
     "        winner = CHALLENGER if winner == SUBMITTER else SUBMITTER\n", ""),
    # The bounds of every parsed format, and the ledger's conservation.
    ("reader-past-its-part", WIRE, "if n > self.stop - self.offset:",
     "if n > len(self.data) - self.offset:"),
    ("reader-one-byte-short", WIRE, "if n > self.stop - self.offset:",
     "if n > self.stop - self.offset + 1:"),
    ("reader-takes-trailing-bytes", WIRE, "if self.offset != self.stop:",
     "if self.offset > self.stop:"),
    ("release-keeps-stake", DISPUTE, "amount = self.stakes.pop(party, 0)\n        self.balances",
     "amount = self.stakes.get(party, 0)\n        self.balances"),
    ("stake-keeps-balance", DISPUTE,
     "        self.balances[party] -= amount\n        self.stakes[party]",
     "        self.stakes[party]"),
    ("slash-burns-whole-stake", DISPUTE,
     "        self.burned += amount - reward\n\n    def penalize",
     "        self.burned += amount\n\n    def penalize"),
    ("penalty-burns-all", DISPUTE, "        self.burned += amount - reward\n\n    def open_dispute",
     "        self.burned += amount\n\n    def open_dispute"),
]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


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
                [sys.executable, "-c", CHILD, "-q", "-x", "-p", "no:cacheprovider", "tests"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return True, "", seconds
    capped = f"hit the {MEMORY_CAP >> 20} MiB memory cap"
    internal = proc.returncode == 3 and "MemoryError" in proc.stdout  # pytest's hooks broke
    if proc.returncode == CAPPED_EXIT or proc.returncode < 0 or internal:  # or an abort
        return False, f"{capped} (exit {proc.returncode})", seconds
    if proc.returncode not in (1, 2):  # 1: a test failed, 2: collection or import error
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    why = failed.group(1) if failed else (proc.stdout.strip() or proc.stderr.strip()
                                          or "no output").splitlines()[-1]
    return False, f"{why}, which {capped}" if "MemoryError" in proc.stdout else why, seconds


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
