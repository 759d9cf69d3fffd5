"""Span recorder for the traced run, and the per-layer metrics derived from it.

`install` replaces public functions of the opml layers, by module or class
attribute, with wrappers that open a span around each call. A span record
holds its name, start, end, parent span and operation id, plus the time its
child spans covered, so self time is duration minus that. Records stay in
memory and are written once, by `Recorder.save`, when the run ends.

Functions called once or more per VM step (the hash methods, the Merkle
leaf reads and writes, `fpvm.state_root`, `Trace.root_at`/`state_at`) are
folded: each call still times itself and still counts toward its parent's
child time, but adds to its name's call count, total and self time instead
of keeping a record. A 64-wide claim makes about 600k such calls, and one
record each would hold hundreds of MiB. `fpvm.step` is not wrapped at all;
steps are counted from the traces and from `fpvm.run`'s return value.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from opml import cli, dispute, fpvm, hashing, lowering, merkle, ml, multiphase

MODULES = {"hashing": hashing, "merkle": merkle, "fpvm": fpvm, "ml": ml,
           "lowering": lowering, "dispute": dispute, "multiphase": multiphase, "cli": cli}


def _arg(args, kwargs, pos, name, default=b""):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _load_program(rec, args, kwargs, result):
    rec.counts["fpvm.load_program.leaves"] += sum(
        -(-len(_arg(args, kwargs, pos, name)) // 32)
        for pos, name in ((0, "program"), (1, "input_blob"), (2, "model_blob")))


def _run_trace(rec, args, kwargs, trace):
    rec.counts["fpvm.steps"] += len(trace)
    rec.counts["fpvm.trace.states"] += len(trace.states)


def _run(rec, args, kwargs, result):
    rec.counts["fpvm.steps"] += result[1]


def _trace_query(rec, args, kwargs, result):
    trace, index = args[0], _arg(args, kwargs, 1, "index")
    rec.queried[trace].add(index)


def _verify_step(rec, args, kwargs, verdict):
    rec.counts["fpvm.verify_step.rejects"] += not verdict.witness_ok


def _matmul(rec, args, kwargs, result):
    a, b = args[0], args[1]
    rec.counts["ml.macs"] += a.shape[0] * a.shape[1] * b.shape[1]


def _lowered(rec, args, kwargs, result):
    rec.counts["lowering.program_words"] += len(result.program) // 4


def _drive_rounds(rec, args, kwargs, outcome):
    rec.counts["dispute.rounds"] += outcome.session.round - args[0].round


def _arbitrate_span(rec, args, kwargs, result):
    witnesses = _arg(args, kwargs, 2, "witnesses")
    rec.counts["dispute.witness_steps"] += len(witnesses)
    rec.pending_witnesses.append(witnesses)  # sized after the op, off the clock


#: (span name, layer module, attribute path, folded, hook)
WRAPS = [
    ("hashing.leaf", "hashing", "HashScheme.leaf_hash", True, None),
    ("hashing.node", "hashing", "HashScheme.node_hash", True, None),
    # HashScheme.digest is split into hashing.state / hashing.other by prefix.
    ("merkle.get_leaf", "merkle", "MemTree.get_leaf", True, None),
    ("merkle.update_leaf", "merkle", "MemTree.update_leaf", True, None),
    ("merkle.prove", "merkle", "MemTree.prove", False, None),
    ("merkle.subtree_root", "merkle", "MemTree.subtree_root", False, None),
    ("merkle.verify", "merkle", "verify", False, None),
    ("merkle.recompute_root", "merkle", "recompute_root", False, None),
    ("merkle.region_root", "merkle", "region_root", False, None),
    ("merkle.root_from_regions", "merkle", "root_from_regions", False, None),
    ("fpvm.state_root", "fpvm", "state_root", True, None),
    ("fpvm.root_at", "fpvm", "Trace.root_at", True, _trace_query),
    ("fpvm.state_at", "fpvm", "Trace.state_at", True, _trace_query),
    ("fpvm.load_program", "fpvm", "load_program", False, _load_program),
    ("fpvm.write_bytes", "fpvm", "write_bytes", False, None),
    ("fpvm.read_bytes", "fpvm", "read_bytes", False, None),
    ("fpvm.assemble", "fpvm", "assemble", False, None),
    ("fpvm.run_trace", "fpvm", "run_trace", False, _run_trace),
    ("fpvm.run", "fpvm", "run", False, _run),
    ("fpvm.find_store_step", "fpvm", "find_store_step", False, None),
    ("fpvm.gen_step_witness", "fpvm", "gen_step_witness", False, None),
    ("fpvm.verify_step", "fpvm", "verify_step", False, _verify_step),
    ("ml.load_model", "ml", "load_model_bytes", False, None),
    ("ml.deserialize_tensor", "ml", "deserialize_tensor", False, None),
    ("ml.serialize_tensor", "ml", "serialize_tensor", False, None),
    ("ml.infer_shapes", "ml", "CompGraph.infer_shapes", False, None),
    ("ml.model_digest", "ml", "CompGraph.model_digest", False, None),
    ("ml.run_graph", "ml", "run_graph", False, None),
    ("ml.execute_native", "ml", "execute_native", False, None),
    ("ml.matmul_fx", "ml", "matmul_fx", False, _matmul),
    ("ml.bias_add_fx", "ml", "bias_add_fx", False, None),
    ("ml.relu_fx", "ml", "relu_fx", False, None),
    ("ml.argmax", "ml", "argmax", False, None),
    ("ml.tensor_key", "ml", "tensor_key", False, None),
    ("ml.tensor_region_root", "ml", "tensor_region_root", False, None),
    ("lowering.lower_graph", "lowering", "lower_graph", False, _lowered),
    ("lowering.lower_node", "lowering", "lower_node", False, _lowered),
    ("lowering.initial_state", "lowering", "LoweredGraph.initial_state", False, None),
    ("lowering.node_initial_state", "lowering", "node_initial_state", False, None),
    ("lowering.program_root", "lowering", "LoweredNode.program_root", False, None),
    ("lowering.read_output_tensor", "lowering", "read_output_tensor", False, None),
    ("lowering.graph_fault_to_step_fault", "lowering", "graph_fault_to_step_fault", False, None),
    ("dispute.synthetic_program", "dispute", "synthetic_program", False, None),
    ("dispute.build_trace_actor", "dispute", "build_trace_actor", False, None),
    ("dispute.run_dispute", "dispute", "run_dispute", False, None),
    ("dispute.drive_rounds", "dispute", "drive_rounds", False, _drive_rounds),
    ("dispute.witnesses", "dispute", "VmTraceActor.witnesses", False, None),
    ("dispute.arbitrate_span", "dispute", "arbitrate_span", False, _arbitrate_span),
    ("dispute.emulate_span", "dispute", "emulate_span", False, None),
    ("multiphase.make_party", "multiphase", "make_party", False, None),
    ("multiphase.run_two_phase_dispute", "multiphase", "run_two_phase_dispute", False, None),
    ("multiphase.build_entrance_state", "multiphase", "build_entrance_state", False, None),
    ("multiphase.entrance_check", "multiphase", "entrance_check", False, None),
    ("multiphase.node_program_root", "multiphase", "node_program_root", False, None),
    ("multiphase.build_exit_bundle", "multiphase", "build_exit_bundle", False, None),
    ("multiphase.exit_check", "multiphase", "exit_check", False, None),
    ("cli.main", "cli", "main", False, None),
    ("cli.cmd_run", "cli", "cmd_run", False, None),
    ("cli.cmd_dispute", "cli", "cmd_dispute", False, None),
    ("cli.read_config", "cli", "read_config", False, None),
]


class Recorder:
    """Spans of one traced run, kept in flat arrays until `save`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.child = array("d")
        #: folded name id -> [calls, total seconds, self seconds]
        self.folded: dict[int, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.queried: dict[object, set] = defaultdict(set)
        self.pending_witnesses: list = []
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.current = -1  # record index of the innermost open recorded span
        self.op_id = -1
        self.op_seconds: list[float] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self, seconds: float) -> None:
        """Close the op: per-trace query sets and witness sizes are tallied here."""
        self.op_seconds.append(seconds)
        self.counts["fpvm.trace.roots_queried"] += sum(len(s) for s in self.queried.values())
        self.queried.clear()
        self.counts["dispute.witness_bytes"] += sum(
            len(w.to_bytes()) for ws in self.pending_witnesses for w in ws)
        self.pending_witnesses.clear()
        self.op_id = -1

    def recorded(self, fn, name: str, hook):
        rec, stack, perf = self, self.stack, time.perf_counter
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            parent = rec.current
            rec.name.append(nid)
            rec.parent.append(parent)
            rec.op.append(rec.op_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.child.append(0.0)
            frame = [0.0]
            stack.append(frame)
            rec.current = idx
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                rec.current = parent
                rec.start[idx], rec.end[idx], rec.child[idx] = t0, t1, frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    def folded_call(self, fn, pick, hook):
        """`pick(args)` returns the aggregate [calls, total, self] to add to."""
        rec, stack, perf = self, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                agg = pick(args)
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self, name: str) -> list:
        return self.folded.setdefault(self.name_id(name), [0, 0.0, 0.0])

    def save(self, path) -> None:
        """Write every span record, the folded totals and the counters."""
        folded = sorted(self.folded.items())
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            child=np.frombuffer(self.child, dtype=np.float64),
            folded_name=np.array([nid for nid, _ in folded], dtype=np.uint16),
            folded_calls=np.array([agg[0] for _, agg in folded], dtype=np.int64),
            folded_total=np.array([agg[1] for _, agg in folded]),
            folded_self=np.array([agg[2] for _, agg in folded]),
            op_seconds=np.array(self.op_seconds),
            counter_names=np.array(sorted(self.counts)),
            counter_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
        )


def _resolve(module_name: str, path: str):
    owner = MODULES[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder):
    """Wrap every function in WRAPS; returns a function that restores them."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for name, module_name, path, folded, hook in WRAPS:
        owner, attr = _resolve(module_name, path)
        fn = getattr(owner, attr)
        if folded:
            agg = rec.aggregate(name)
            patch(owner, attr, rec.folded_call(fn, lambda args, agg=agg: agg, hook))
        else:
            patch(owner, attr, rec.recorded(fn, name, hook))

    state, other = rec.aggregate("hashing.state"), rec.aggregate("hashing.other")
    patch(hashing.HashScheme, "digest", rec.folded_call(
        hashing.HashScheme.digest,
        lambda args: state if args[1][:1] == hashing.VM_STATE_PREFIX else other, None))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


class Totals:
    """Per-name calls, total and self seconds over records and folded calls."""

    def __init__(self, rec: Recorder):
        n = len(rec.names)
        name = np.frombuffer(rec.name, dtype=np.uint16).astype(np.int64)
        dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
        self_s = dur - np.frombuffer(rec.child)
        self.calls = np.bincount(name, minlength=n).astype(np.int64)
        self.total = np.bincount(name, weights=dur, minlength=n)
        self.self_s = np.bincount(name, weights=self_s, minlength=n)
        for nid, (calls, total, own) in rec.folded.items():
            self.calls[nid] += calls
            self.total[nid] += total
            self.self_s[nid] += own
        self.ids = dict(rec._ids)
        self.names = list(rec.names)
        top = np.frombuffer(rec.parent, dtype=np.int64) == -1
        self.top_level_s = float(dur[top].sum())

    def get(self, name: str):
        nid = self.ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return int(self.calls[nid]), float(self.total[nid]), float(self.self_s[nid])

    def layer(self, layer: str):
        calls = self_s = 0
        for nid, name in enumerate(self.names):
            if name.split(".", 1)[0] == layer:
                calls += int(self.calls[nid])
                self_s += float(self.self_s[nid])
        return calls, self_s


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(rec: Recorder, overhead_ratio: float) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit); value None when absent.

    Sums and counts are per traced operation. A metric is absent when none of
    the functions it measures was entered on this workload.
    """
    t = Totals(rec)
    ops = len(rec.op_seconds)
    c = rec.counts
    out: dict[str, tuple] = {}

    def calls(span):
        return t.get(span)[0]

    def put(name, unit, value, *sources):
        out[name] = (value if any(calls(s) for s in sources) else None, unit)

    def put_calls(*spans):
        for span in spans:
            put(f"{span}.calls", "count", calls(span) / ops, span)

    def put_secs(*spans):
        for span in spans:
            put(f"{span}.s", "s", t.get(span)[1] / ops, span)

    def put_count(name, *sources, unit="count"):
        put(name, unit, c[name] / ops, *sources)

    def put_self(layer):
        n, own = t.layer(layer)
        out[f"{layer}.self_s"] = (own / ops if n else None, "s")

    hashes = [f"hashing.{kind}" for kind in ("leaf", "node", "state", "other")]
    put_calls(*hashes)
    put_self("hashing")
    put("hashing.calls_per_s", "1/s",
        _ratio(sum(calls(h) for h in hashes), t.layer("hashing")[1]), *hashes)

    put_self("merkle")
    put_calls("merkle.update_leaf")
    put_secs("merkle.update_leaf")
    put_calls("merkle.get_leaf")
    put_secs("merkle.get_leaf")
    put_calls("merkle.prove", "merkle.verify")
    put_secs("merkle.region_root", "merkle.root_from_regions")

    stepping = ("fpvm.run_trace", "fpvm.run")
    queries = ("fpvm.root_at", "fpvm.state_at")
    put_self("fpvm")
    put_count("fpvm.steps", *stepping)
    put("fpvm.steps_per_s", "1/s",
        _ratio(c["fpvm.steps"], sum(t.get(s)[1] for s in stepping)), *stepping)
    put_secs("fpvm.run_trace", "fpvm.run", "fpvm.load_program")
    put_count("fpvm.load_program.leaves", "fpvm.load_program")
    put_calls("fpvm.state_root")
    put_count("fpvm.trace.states", "fpvm.run_trace")
    put_count("fpvm.trace.roots_queried", *queries)
    put("fpvm.trace.useful_ratio", "ratio",
        _ratio(c["fpvm.trace.roots_queried"], c["fpvm.trace.states"]), *queries)
    put_calls("fpvm.gen_step_witness")
    put_secs("fpvm.gen_step_witness")
    put_calls("fpvm.verify_step")
    put_secs("fpvm.verify_step")
    put_count("fpvm.verify_step.rejects", "fpvm.verify_step")

    put_self("ml")
    put_secs("ml.load_model", "ml.run_graph")
    put_count("ml.macs", "ml.matmul_fx")

    put_self("lowering")
    put_secs("lowering.lower_graph", "lowering.lower_node")
    put_count("lowering.program_words", "lowering.lower_graph", "lowering.lower_node")

    put_self("dispute")
    put_secs("dispute.build_trace_actor", "dispute.drive_rounds")
    put_count("dispute.rounds", "dispute.drive_rounds")
    put_secs("dispute.arbitrate_span")
    put_count("dispute.witness_steps", "dispute.arbitrate_span")
    put_count("dispute.witness_bytes", "dispute.arbitrate_span", unit="B")

    put_self("multiphase")
    put_secs(*(f"multiphase.{fn}" for fn in ("make_party", "build_entrance_state",
                                             "entrance_check", "build_exit_bundle", "exit_check")))
    put_calls("multiphase.node_program_root")

    put_self("cli")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.unattributed_share"] = (1.0 - t.top_level_s / sum(rec.op_seconds), "ratio")
    return out
