"""Self-test of the benchmark's own machinery; run from the checkout root:

    python3 perfbench/selftest.py

1. A deliberately wrong expected value makes the gate fail: crosscheck is run
   once with one pinned oracle value off by one, and must report exactly
   that failure; the unchanged expected values must report none.
2. The seed only relabels: b_recursion on seeds 0 and 1 gets different
   tables but identical A and B for every group.
3. Self time: a parent span's self time excludes its children.
4. Pace sampling: the calibration kernel runs inside a timed block, its runs
   are taken out of the block's time, and the old SIGALRM handler is back
   afterwards.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import signal
import sys
import time

import numpy as np

import pace
import spans
from worker import EXPECTED, run_passes

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import workloads  # noqa: E402  (needs src on the path)


def run_once(name: str, seed: int, expected: dict):
    wl = workloads.WORKLOADS[name](seed, expected, spans.NullRecorder())
    wl.setup()
    result = run_passes(wl, wl.rec, 0.0, once=True)
    return wl, result


def wrong_value_fails(expected: dict) -> list[str]:
    problems = []
    _, good = run_once("crosscheck", 0, expected)
    if good["failed"]:
        problems.append(f"crosscheck failed with the true expected values: {good['failures']}")
    bad = copy.deepcopy(expected)
    bad["crosscheck"]["pinned"]["beta Q8 2"] += 1
    _, res = run_once("crosscheck", 0, bad)
    if res["failed"] != 1 or "pinned beta Q8 2" not in res["failures"][0]:
        problems.append(f"a wrong pinned value did not fail the gate once: {res['failures']}")
    return problems


def seed_only_relabels(expected: dict) -> list[str]:
    problems = []
    runs = [run_once("b_recursion", seed, expected) for seed in (0, 1)]
    for (wl, res) in runs:
        if res["failed"]:
            problems.append(f"b_recursion seed {wl.seed} failed: {res['failures']}")
    (w0, _), (w1, _) = runs
    for g0, g1, (a0, b0), (a1, b1) in zip(w0.inputs[0], w1.inputs[0], w0.results[0], w1.results[0]):
        if np.array_equal(g0.mul, g1.mul):
            problems.append(f"{g0.label}: seeds 0 and 1 gave the same table")
        if (a0, b0) != (a1, b1):
            problems.append(f"{g0.label}: A or B differs between seeds 0 and 1")
    return problems


def self_time_excludes_children() -> list[str]:
    rec = spans.Recorder()
    with rec.span("pass"):
        with rec.span("outer"):
            time.sleep(0.02)
            with rec.span("inner"):
                time.sleep(0.03)
    t = rec.layer_times(("pass",))
    outer, inner = t["outer"], t["inner"]
    ok = (0.015 < outer["self_s"] < 0.03 and inner["self_s"] >= 0.03
          and outer["max_s"] >= outer["self_s"] + inner["self_s"] - 1e-6)
    return [] if ok else [f"self times wrong: {t}"]


def pace_sampler_takes_kernel_out() -> list[str]:
    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler(pace.MIX["table"]) as sampler:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    problems = []
    if not 0.3 < sampler.elapsed_s < 0.35:
        problems.append(f"pace: 0.35 s block minus kernel runs gave {sampler.elapsed_s}")
    if len(sampler.samples) < pace.MIN_SAMPLES or sampler.at_reference_pace() <= 0:
        problems.append(f"pace: {len(sampler.samples)} samples, {sampler.at_reference_pace()}")
    if signal.getsignal(signal.SIGALRM) is not before:
        problems.append("pace: SIGALRM handler not restored")
    return problems


def main() -> int:
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    problems = self_time_excludes_children()
    problems += pace_sampler_takes_kernel_out()
    problems += wrong_value_fails(expected)
    problems += seed_only_relabels(expected)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
