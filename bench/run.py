"""Benchmark of arithlab: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Workloads (see README.md): ``h1-domain``, ``cli-cold``, ``arith-core``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Inputs are made from the seed; every op's output is
checked against an answer computed apart from arithlab.

This process never imports arithlab.  It compiles arithlab's sources to
bytecode, makes the inputs, then starts worker processes: one that sets up and runs the timed phase, and, for
``setup_s``, a few that only set up, half of them before it and half after,
so that the set-ups do not all fall in one spell of the host's speed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

# Seconds one pass of each workload's task list took when the benchmark was
# made.  They fix how many passes a run makes for a given --seconds, so
# the work per run stays the same when arithlab gets faster.  Frozen.
PASS_SECONDS = {"h1-domain": 11.5, "cli-cold": 5.7, "arith-core": 2.25}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "pass_ref": "ref",
                    "peak_rss_mb": "MB"}
SETUP_ONLY = 4  # set-up-only workers before the timed one, and as many after
# The whole run, workers included, ends within a fixed margin plus this many
# times the nominal length of its passes.
DEADLINE_MARGIN_S = 60
DEADLINE_FACTOR = 3


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def deadline_s(workload: str, passes: int, trace: int) -> float:
    phases = 2 if trace else 1  # a traced run makes its passes untraced, then traced
    return DEADLINE_MARGIN_S + DEADLINE_FACTOR * phases * passes * PASS_SECONDS[workload]


def run_worker(args: list[str], deadline: float) -> dict:
    # Its own session, so that on timeout the worker's CLI children go too.
    with subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "arithlab", "__init__.py")):
        print("error: no arithlab sources under src/ next to the benchmark", file=sys.stderr)
        return 2

    # Import times then include no compiling, whether or not the environment
    # lets Python write bytecode itself (PYTHONDONTWRITEBYTECODE): compiling
    # arithlab's sources added about 0.1 s to a set-up and 40-80 ms to each
    # CLI call.  Files already compiled and unchanged are skipped.
    if not compileall.compile_dir(os.path.join(ROOT, "src", "arithlab"), quiet=1):
        print("error: arithlab's sources do not compile", file=sys.stderr)
        return 1

    import inputs  # after the check above: it imports sympy, which is slow

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    inputs_path = os.path.join(OUT_DIR, f"inputs-{tag}.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs.make_inputs(args.workload, args.seed), fh)

    passes = passes_for(args.workload, args.seconds)
    if args.trace:
        # A traced run makes its passes twice, untraced and traced.
        passes = max(1, passes // 3)
    deadline = start + deadline_s(args.workload, passes, args.trace)
    common = ["--workload", args.workload, "--inputs", inputs_path, "--out-dir", OUT_DIR,
              "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace)]
    setup_only = 0 if args.trace else SETUP_ONLY
    try:
        setups = [run_worker(common + ["--setup-only"], deadline) for _ in range(setup_only)]
        result = run_worker(common, deadline)
        setups += [run_worker(common + ["--setup-only"], deadline) for _ in range(setup_only)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["metrics"]
    else:
        m = result["metrics"]
        setups.append({k: m[k] for k in ("setup_s", "raw_setup_s")})
        for key in ("setup_s", "raw_setup_s"):
            m[key] = statistics.median(x[key] for x in setups)
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    # Raw samples, raw (unnormalized) times included, for the README's spreads.
    with open(os.path.join(OUT_DIR, f"samples-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"passes": passes, "setups": setups, **result}, fh)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
