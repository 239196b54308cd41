"""One benchmark process: set-up, the timed phase and, when traced, a traced phase.

Started by ``run.py``, never by hand:

    python worker.py --workload W --inputs FILE --out-dir DIR --passes P
                     [--trace 0|1] [--setup-only]

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import tasks as tasklib
from refkernel import NOMINAL_S, timed_reference
from tracer import BENCH_OP, Tracer, layer_metrics

SAMPLE_EVERY_S = 0.5  # in-process ops get a reference run every half second while they run
PROBES = 5  # bare-interpreter and import probes in the traced run
CHILD = os.path.join(tasklib.BENCH_DIR, "child.py")
WALL_TIME = re.compile(r"^wall-time: ([0-9.]+)s$", re.M)


def build(workload: str, A, inputs: dict, out_dir: str, cli_command: list[str]):
    if workload == "h1-domain":
        return tasklib.h1_domain_tasks(A, inputs)
    if workload == "cli-cold":
        return tasklib.cli_cold_tasks(A, inputs, out_dir, cli_command)
    return tasklib.arith_core_tasks(A, inputs)


def passes_check(task, out) -> bool:
    try:
        return bool(task.check(out))
    except (KeyError, TypeError, ValueError, AttributeError, IndexError):
        return False  # an output of the wrong shape is a wrong answer


class RefSampler:
    """Runs the reference kernel from a timer signal while an op runs.

    A long op spans several of the host's fast and slow spells, which the
    runs just before and after it miss.  Each tick's own time is taken out
    of the op's time.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def _tick(self, signum, frame):
        start = perf_counter()
        ref = timed_reference()
        self.ticks.append((start, perf_counter(), ref))

    def __enter__(self):
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def before(self, end: float) -> list[tuple[float, float, float]]:
        return [t for t in self.ticks if t[1] <= end]


def run_phase(task_list, passes: int, tracer: Tracer | None = None, after_op=None,
              sample: bool = False) -> dict:
    """Run every task ``passes`` times, one op at a time; check each output."""
    records, errors, correct = [], {}, True
    sampler = RefSampler() if sample else nullcontext()
    for _ in range(passes):
        for task in task_list:
            if task.prepare is not None:
                task.prepare()
            refs = [timed_reference()]
            out, error = None, None
            with tracer.span(BENCH_OP) if tracer is not None else nullcontext() as op_span:
                with sampler:
                    start = perf_counter()
                    try:
                        out = task.run()
                    except Exception as exc:  # a failed op is counted, and the run goes on
                        error = exc
                    end = perf_counter()
            op_s = end - start
            if sample:
                ticks = sampler.before(end)
                op_s -= sum(t1 - t0 for t0, t1, _ in ticks)
                refs += [r for _, _, r in ticks]
            refs.append(timed_reference())
            ref_s = sum(refs) / len(refs)
            rec = {"task": task.name, "op_s": op_s, "ref_s": ref_s, "failed": error is not None}
            if error is not None:
                errors.setdefault(task.name, f"{type(error).__name__}: {error}"[:300])
            elif not passes_check(task, out):
                correct = False
                errors.setdefault(task.name, "wrong answer")
            if after_op is not None:
                rec.update(after_op(out, op_span))
            records.append(rec)
            del out
    for name, msg in errors.items():
        print(f"{name}: {msg}", file=sys.stderr)
    return {"records": records, "correct": correct,
            "failed": sum(r["failed"] for r in records)}


def end_to_end(records: list[dict]) -> dict:
    """Normalized times (at NOMINAL_S per kernel run), pass_ref, and the raw times."""
    ratios: dict[str, list[float]] = {}
    for r in records:
        ratios.setdefault(r["task"], []).append(r["op_s"] / r["ref_s"])
    normalized = [r["op_s"] * NOMINAL_S / r["ref_s"] for r in records]
    return {
        "wall_s": sum(normalized),
        "op_p50_ms": 1000 * statistics.median(normalized),
        "pass_ref": sum(statistics.median(v) for v in ratios.values()),
        "raw_wall_s": sum(r["op_s"] for r in records),
        "raw_op_p50_ms": 1000 * statistics.median(r["op_s"] for r in records),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def probe_ms(cmd: list[str]) -> float:
    env = tasklib.cli_env()
    times = []
    for _ in range(PROBES):
        start = perf_counter()
        subprocess.run(cmd, check=True, env=env, cwd=tasklib.ROOT, capture_output=True, timeout=60)
        times.append(perf_counter() - start)
    return 1000 * statistics.median(times)


def cli_observer(tracer: Tracer | None, spans_path: str):
    """Per-invocation figures: handler time, stdout size and, traced, the child's spans."""

    def after_op(proc, op_span):
        rec = {}
        if proc is not None:
            match = WALL_TIME.search(proc.stderr)
            rec = {"handler_s": float(match.group(1)) if match else 0.0,
                   "stdout_bytes": len(proc.stdout.encode())}
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(spans_path)
            tracer.absorb(child["spans"], op_span)
        return rec

    return after_op


def traced_run(args, A, task_list, tracer: Tracer, setup_end: int, cli_command: list[str]) -> dict:
    """An untraced then a traced phase of the same passes; per-layer metrics."""
    passes = args.passes
    is_cli = args.workload == "cli-cold"
    spans_path = os.path.join(args.out_dir, "child-spans.json")
    plain = run_phase(task_list, passes, after_op=cli_observer(None, spans_path) if is_cli else None,
                      sample=not is_cli)

    traced_after = cli_observer(tracer, spans_path) if is_cli else None
    if is_cli:
        cli_command[:] = [sys.executable, CHILD, spans_path]
    tracer.install(A)
    traced = run_phase(task_list, passes, tracer, after_op=traced_after)
    tracer.uninstall()
    tracer.write(os.path.join(args.out_dir, f"trace-{args.workload}-{args.seed}.jsonl.gz"))

    metrics = layer_metrics(tracer, setup_end, passes)

    interpreter = probe_ms([sys.executable, "-c", "pass"])
    imported = probe_ms([sys.executable, "-c", "import arithlab"]) - interpreter
    ok = [r for r in plain["records"] if not r["failed"]]
    handler_ms = 1000 * sum(r.get("handler_s", 0.0) for r in ok) / passes
    render_ms = 0.0
    if is_cli:
        render_ms = sum(1000 * r["op_s"] - interpreter - imported for r in ok) / passes - handler_ms
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_ms"] = (imported, "ms")
    metrics["cli.handler_ms"] = (handler_ms, "ms")
    metrics["cli.render_ms"] = (render_ms, "ms")
    metrics["cli.stdout_bytes"] = (sum(r.get("stdout_bytes", 0) for r in ok) / passes, "B")
    metrics["bench.ref_kernel_ms"] = (
        1000 * statistics.median(r["ref_s"] for r in plain["records"]), "ms")
    plain_times = end_to_end(plain["records"])
    metrics["bench.raw_pass_s"] = (plain_times["raw_wall_s"] / passes, "s")
    # Normalized, so that drift between the two phases does not read as overhead.
    metrics["bench.trace_overhead_s"] = (
        (end_to_end(traced["records"])["wall_s"] - plain_times["wall_s"]) / passes, "s")
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": len(plain["records"]) + len(traced["records"]),
        "failed": plain["failed"] + traced["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "records": plain["records"] + traced["records"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tracer = Tracer() if args.trace else None
    # The CLI ops read this list when they run; the traced phase repoints it.
    cli_command = [sys.executable, "-m", "arithlab"]

    timed_reference()  # the first run in a fresh interpreter is not typical
    ref_before = timed_reference()
    start = perf_counter()
    A = tasklib.import_arithlab()
    if tracer is not None:
        tracer.install(A)
    task_list = build(args.workload, A, inputs, args.out_dir, cli_command)
    raw_setup_s = perf_counter() - start
    setup_s = raw_setup_s * NOMINAL_S / ((ref_before + timed_reference()) / 2)

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    if tracer is not None:
        tracer.uninstall()
        result = traced_run(args, A, task_list, tracer, len(tracer), cli_command)
    else:
        # CLI ops wait on a child; a tick in the parent would compete with it.
        phase = run_phase(task_list, args.passes, sample=args.workload != "cli-cold")
        result = {
            "correct": phase["correct"],
            "attempted": len(phase["records"]),
            "failed": phase["failed"],
            "metrics": dict(end_to_end(phase["records"]), peak_rss_mb=peak_rss_mb(args.workload),
                            setup_s=setup_s, raw_setup_s=raw_setup_s),
            "records": phase["records"],
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
