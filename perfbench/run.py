"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload table|b_recursion|crosscheck \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics, with every time given at the
reference pace of pace.py: set-up is timed in separate processes (the
measuring worker is one of them), at least SETUP_RUNS times and for at least
SETUP_MIN_S in all, each between two pace measurements of PACE_S, and the
median is reported; the measuring worker then runs passes for S seconds,
sampling the pace during each, and reports the median pass.  --trace 1 runs one untraced and one traced pass, each in
its own worker, and reports the per-layer metrics; trace.overhead_s is the
traced pass minus the untraced one.  Each worker runs on one thread.

The last line of stdout is the JSON result.  The exit code is 0 when every
check passed, 1 when one failed, 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import pace
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("table", "b_recursion", "crosscheck")
SETUP_RUNS = 3      # set-up is timed at least this many times per run,
SETUP_MIN_S = 2.0   # and until the set-ups add up to this many seconds
PACE_S = 0.15       # pace measured for this long before and after each set-up
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str, traced: bool,
               deadline: float) -> dict:
    """Start one worker, time its set-up from launch to `ready`, wait for it
    with os.wait4 and return its result with its own peak RSS."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, WORKER, workload, str(seed), str(seconds), mode, "1" if traced else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        tail = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerFailed(f"{workload} worker ({mode}) exited with {proc.returncode}")
    result = json.loads(tail) if mode != "setup" else {}
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def run_worker_paced(args, mode: str, deadline: float) -> tuple[dict, float]:
    """run_worker, with its set-up time also given at reference pace."""
    mix = pace.MIX[args.workload]
    before = pace.measure(PACE_S, mix)
    result = run_worker(args.workload, args.seed, args.seconds, mode, False, deadline)
    after = pace.measure(PACE_S, mix)
    return result, result["setup_s"] * pace.reference_s(mix) / statistics.fmean((before, after))


def measure(args, deadline: float) -> tuple[dict, list[dict]]:
    setups: list[float] = []
    raw_setup_s = 0.0
    while len(setups) < SETUP_RUNS - 1 or raw_setup_s < SETUP_MIN_S:
        result, setup_ref_s = run_worker_paced(args, "setup", deadline)
        setups.append(setup_ref_s)
        raw_setup_s += result["setup_s"]
    main, setup_ref_s = run_worker_paced(args, "measure", deadline)
    setups.append(setup_ref_s)
    attempted = max(main["attempted"], 1)
    values = {
        "wall_s": statistics.median(main["pass_ref_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "pass_frac": 1.0 - main["failed"] / attempted,
    }
    return values, [main]


def measure_traced(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = run_worker(args.workload, args.seed, args.seconds, "once", False, deadline)
    traced = run_worker(args.workload, args.seed, args.seconds, "once", True, deadline)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["pass_s"][0] - plain["pass_s"][0]
    return values, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops and reaps its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "conjgf", "__init__.py")):
        print("run.py: src/conjgf not found; run from the root of a conjgf checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    try:
        values, workers = (measure_traced if args.trace else measure)(args, deadline)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    # report exactly the metrics BENCHMARK.json declares, with its units
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for line in w["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(spans.environment(), sort_keys=True))
    print("passes " + json.dumps([w["pass_s"] for w in workers]))
    print("passes_at_reference_pace " + json.dumps([w["pass_ref_s"] for w in workers]))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
