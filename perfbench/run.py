"""Benchmark for opml: claims, two-phase and single-phase disputes, end to end.

    python3 perfbench/run.py --workload claim --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. It builds the workload's files from
the seed, sets up several times (generation, reference outputs and one
untimed warm-up op each), then drives `opml.cli.main` in-process as a closed
loop with one client: one process, one thread, one operation at a time.
Every result is checked. The last line of standard output is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Files go to .perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1
SETUPS = 9
TAIL_BEYOND = 10
HASH_SCHEME = "sha256"


def prepare():
    """Import opml from this checkout's src/ and pin the hash scheme.

    Exits with status 1 and no result when the checkout has no program.
    """
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import opml
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import opml from {ROOT / 'src'}: {exc}")
    if Path(opml.__file__).resolve().parent != ROOT / "src" / "opml":
        sys.exit(f"perfbench: opml imported from {opml.__file__}, not from this checkout")
    sys.path.insert(0, str(BENCH_DIR))
    os.environ["OPML_HASH"] = HASH_SCHEME


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(cli, op, workdir: Path, ticker=None):
    """Run one opml command in-process; returns (exit code, stdout, stderr, seconds, output bytes).

    With a hostspeed.Ticker, the kernel runs during the command and its time
    is taken out of `seconds`.
    """
    out, err = io.StringIO(), io.StringIO()
    if op.out is not None:
        (workdir / op.out).unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with ticker or contextlib.nullcontext():
                code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects a bad command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0 - (sum(ticker.samples) if ticker else 0.0)
    out_bytes = None
    if op.out is not None and (workdir / op.out).exists():
        out_bytes = (workdir / op.out).read_bytes()
    return code, out.getvalue(), err.getvalue(), seconds, out_bytes


class Runner:
    """One workload's files, schedule and checks inside its work directory.

    `expected` maps op keys ("warmup", "op0", ...) to the committed result
    lines; ops without an entry are checked against the references only.
    """

    def __init__(self, workload: str, seed: int, passes: int, expected: dict):
        import workloads
        from opml import cli

        self.w, self.cli = workloads, cli
        self.workload, self.seed, self.passes = workload, seed, passes
        self.expected = expected
        self.workdir = OUT_DIR / workload
        self.plan = None
        self.failures: list[str] = []
        self.lines: dict[str, list[str]] = {}

    def setup(self) -> float:
        """Generate files and references, run the warm-up op; returns seconds."""
        t0 = time.perf_counter()
        self.plan = self.w.build(self.workload, self.seed, self.passes)
        os.chdir(ROOT)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        os.chdir(self.workdir)  # commands name their files relative to it
        for name, blob in self.plan.files.items():
            (self.workdir / name).write_bytes(blob)
        self.execute("warmup", self.plan.warmup)
        return time.perf_counter() - t0

    def execute(self, key: str, op, ticker=None):
        """Run and check one op; returns (seconds, error or None, verdict rounds or None)."""
        code, stdout, stderr, seconds, out_bytes = run_op(self.cli, op, self.workdir, ticker)
        self.lines[key] = stdout.splitlines()
        error = self.w.check(op, code, stdout, out_bytes, self.expected.get(key))
        if error is not None:
            self.failures.append(f"{key} ({' '.join(op.argv)}): {error} {stderr.strip()[-300:]}")
        rounds = None
        if error is None and op.want_tensor is None:
            rounds = int(self.w.verdict_fields(stdout)["rounds"])
        return seconds, error, rounds


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(runner: Runner, ops):
    """Run `ops` in order; returns (seconds, host-scaled seconds, rounds, failed).

    Each op's time is scaled by the median time of the calibration kernel
    runs just before, during and just after it (hostspeed.py).
    """
    import hostspeed

    times, scaled, rounds, failed = [], [], [], 0
    before = hostspeed.sample()
    for i, op in ops:
        ticker = hostspeed.Ticker()
        seconds, error, op_rounds = runner.execute(f"op{i}", op, ticker)
        after = hostspeed.sample()
        times.append(seconds)
        scaled.append(seconds * hostspeed.factor(before + ticker.samples + after))
        before = after
        failed += error is not None
        if op_rounds is not None:
            rounds.append(op_rounds)
    return times, scaled, rounds, failed


def timings(times: list[float], per_pass: int) -> tuple[float, float, float, float]:
    """(p50, tail, tail percentile, ops per second) of per-op times.

    Every pass has the same mix, so each pass's rate is one sample of the
    throughput; their median shrugs off a burst of host noise in a few passes.
    """
    tail_s, tail_pct = tail(times)
    rates = [per_pass / sum(times[i:i + per_pass]) for i in range(0, len(times), per_pass)]
    return statistics.median(times), tail_s, tail_pct, statistics.median(rates)


def end_to_end(runner: Runner, setups: list[tuple[float, float]]) -> tuple[dict, int, int]:
    """Metrics of one untraced run; `setups` holds (seconds, host factor) per set-up."""
    ops = list(enumerate(runner.plan.ops))
    per_pass = len(ops) // runner.passes
    raw, times, rounds, failed = measure(runner, ops)
    p50_s, tail_s, tail_pct, ops_per_s = timings(times, per_pass)
    wall_p50_s, wall_tail_s, _, wall_ops_per_s = timings(raw, per_pass)
    metrics = {
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "op_p50_s": (p50_s, "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "fail_ratio": (failed / len(times), "ratio"),
    }
    if runner.workload == "claim":
        metrics["macs_per_s"] = (sum(op.macs for op in runner.plan.ops) / sum(times), "MAC/s")
    else:
        metrics["rounds_per_dispute"] = (statistics.mean(rounds) if rounds else 0.0, "rounds")
    metrics.update({
        "host_factor": (statistics.median(t / r for t, r in zip(times, raw)), "ratio"),
        "wall.setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall.op_p50_s": (wall_p50_s, "s"),
        "wall.op_tail_s": (wall_tail_s, "s"),
        "wall.ops_per_s": (wall_ops_per_s, "1/s"),
    })
    beyond = TAIL_BEYOND if len(times) > TAIL_BEYOND else 0
    print(f"op_tail_s is p{tail_pct:.1f} of {len(times)} ops ({beyond} beyond it)")
    print("times are scaled to the reference host by the calibration kernel (hostspeed.py); "
          "host_factor is the median scale and wall.* are the times as measured")
    return metrics, len(times), failed


def traced(runner: Runner) -> tuple[dict, int, int]:
    """Half the passes traced, then the first of them again untraced as the
    baseline for trace.overhead_ratio."""
    import spantrace

    per_pass = len(runner.plan.ops) // runner.passes
    ops = list(enumerate(runner.plan.ops))[: per_pass * max(1, runner.passes // 2)]
    rec = spantrace.Recorder()
    restore = spantrace.install(rec)
    failed = 0
    try:
        for i, op in ops:
            rec.begin_op(i)
            seconds, error, _ = runner.execute(f"op{i}", op)
            rec.end_op(seconds)
            failed += error is not None
    finally:
        restore()
    baseline, _, _, baseline_failed = measure(runner, ops[:per_pass])
    rec.save(OUT_DIR / f"spans-{runner.workload}.npz")
    metrics = spantrace.per_layer_metrics(rec, sum(rec.op_seconds[:per_pass]) / sum(baseline))
    return metrics, len(ops) + per_pass, failed + baseline_failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["claim", "dispute-model", "dispute-synthetic"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    prepare()
    import hostspeed
    import workloads

    passes = workloads.passes_for(args.workload, args.seconds)
    expected = {}
    if args.seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text())[args.workload]
    runner = Runner(args.workload, args.seed, passes, expected)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "hash": HASH_SCHEME, "nproc": os.cpu_count(),
        "commit": git_commit(), "passes": passes,
        "load": "closed loop, 1 client, 1 thread, in-process opml.cli.main",
    }
    print("context " + json.dumps(context))

    cwd = Path.cwd()
    try:
        setups, before = [], hostspeed.sample(5)
        for _ in range(SETUPS):
            with hostspeed.Ticker() as ticker:
                seconds = runner.setup()
            seconds -= sum(ticker.samples)
            after = hostspeed.sample(5)
            setups.append((seconds, hostspeed.factor(before + ticker.samples + after)))
            before = after
        print(f"setup: median of {SETUPS} set-ups, each generating files and reference "
              f"outputs and running one untimed warm-up op; the warm-up fills module caches "
              f"such as multiphase._program_root_cache; each is scaled to the reference host "
              f"by the calibration kernel run just before, during and just after it")
        if args.trace:
            metrics, attempted, failed = traced(runner)
        else:
            metrics, attempted, failed = end_to_end(runner, setups)
    finally:
        os.chdir(cwd)

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if value is None:
            print(f"{name} absent {unit} (never entered on this workload)")
        else:
            print(f"{name} {value:.6g} {unit}")
    report = {"context": context, "attempted": attempted, "failed": failed,
              "failures": runner.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0] or 0.0,
                                "unit": metrics[m["name"]][1]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
