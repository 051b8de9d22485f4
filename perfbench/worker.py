"""One workload in one process, started by run.py from the checkout root.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE TRACED

MODE is `setup` (set up, report, exit), `measure` (passes until SECONDS have
gone by) or `once` (a single pass).  The worker writes `ready` on stdout
when set-up is done, then one JSON line with the result; anything the
program prints goes to stderr.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

import pace
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, ".out")


def run_passes(wl, rec, seconds: float, once: bool, pace_mix: tuple | None = None) -> dict:
    """Prepare, time and check passes, then the gate and (traced) the re-runs.

    Passes go on until `seconds` have gone by and every input variant has
    had a pass.  Garbage is collected before each pass, outside the timed
    part, so no pass inherits another's garbage and peak RSS does not grow
    with the number of passes.  With a `pace_mix`, the machine's pace is
    sampled with those kernel parts during each pass (see pace.py) and each
    pass time is also given at reference pace."""
    pass_s, pass_ref_s = [], []
    start = time.perf_counter()
    i = 0
    out = None
    while True:
        wl.prepare(i)
        out = None
        gc.collect()
        if pace_mix:
            with pace.Sampler(pace_mix) as sampler:
                out = wl.run_pass()
            pass_s.append(sampler.elapsed_s)
            pass_ref_s.append(sampler.at_reference_pace())
        else:
            t0 = time.perf_counter()
            with rec.span("pass"):
                out = wl.run_pass()
            pass_s.append(time.perf_counter() - t0)
        wl.check_pass(out)
        i += 1
        if once or (i >= wl.variants and time.perf_counter() - start >= seconds):
            break
    with rec.span("gate"):
        wl.gate()
    if rec.traced:
        with rec.span("rerun"):
            wl.rerun()
    return {"pass_s": pass_s, "pass_ref_s": pass_ref_s, "attempted": wl.checks.attempted,
            "failed": wl.checks.failed, "failures": wl.checks.failures[:20]}


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode, traced = argv
    proto = sys.stdout
    sys.stdout = sys.stderr
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import workloads

    rec = spans.Recorder() if traced == "1" else spans.NullRecorder()
    if rec.traced:
        rec.install_patches()
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    wl = workloads.WORKLOADS[workload](int(seed), expected, rec)
    with rec.span("setup"):
        wl.setup()
    proto.write("ready\n")
    proto.flush()
    if mode == "setup":
        return 0

    result = run_passes(wl, rec, float(seconds), once=(mode == "once"),
                        pace_mix=pace.MIX[workload] if mode == "measure" and not rec.traced
                        else None)
    if rec.traced:
        result["layers"] = layer_metrics(wl, rec)
        rec.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"),
                  {"workload": workload, "seed": int(seed), "env": spans.environment()})
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


def layer_metrics(wl, rec) -> dict:
    """The per-layer figures of one traced worker, named as in BENCHMARK.json."""
    run = rec.layer_times(("setup", "pass", "gate"))
    again = rec.layer_times(("rerun",))
    in_pass = rec.layer_times(("pass",))

    def self_s(name, table=run):
        return table.get(name, {}).get("self_s", 0.0)

    def max_s(name, table=run):
        return table.get(name, {}).get("max_s", 0.0)

    out = {
        "pcp.build_s": self_s("pcp.build"),
        "pcp.build_s_max": max_s("pcp.build"),
        "pcp.collect_s": self_s("pcp.collect", again),
        "groups.certify_s": self_s("groups.certify"),
        "groups.certify_s_max": max_s("groups.certify"),
        "groups.perm_build_s": self_s("groups.perm_build"),
        "groups.induced_table_s": self_s("groups.induced_table", again),
        "analysis.invariants_s": self_s("analysis.invariants"),
        "analysis.classes_s": self_s("analysis.classes"),
        "analysis.centralizers_s": self_s("analysis.centralizers", again),
        "genfun.a_s": self_s("genfun.a"),
        "genfun.b_s": self_s("genfun.b"),
        "genfun.b_s_max": max_s("genfun.b"),
        "genfun.coefficients_s": self_s("genfun.coefficients"),
        "ratfun.sum_s": self_s("ratfun.sum", again),
        "ratfun.normalize_s": self_s("ratfun.normalize"),
        "ratfun.partial_fractions_s": self_s("ratfun.partial_fractions"),
        "closed_forms.table_row_s": self_s("closed_forms.table_row"),
        "closed_forms.eval_s": self_s("closed_forms.eval"),
        "oracle.alpha_brute_s": self_s("oracle.alpha_brute"),
        "oracle.beta_brute_s": self_s("oracle.beta_brute"),
        "isoclinism.search_s": self_s("isoclinism.search"),
        "isoclinism.verify_s": self_s("isoclinism.verify"),
    }
    counts = rec.counts
    for name in ("pcp.collect_calls", "groups.induced_tables", "analysis.classes",
                 "analysis.noncentral_classes", "analysis.distinct_centralizers",
                 "ratfun.adds", "oracle.tuples_visited", "isoclinism.pairs"):
        out[name] = counts.get(name, 0)
    out["groups.table_bytes"] = wl.table_bytes()
    brute_s = out["oracle.alpha_brute_s"] + out["oracle.beta_brute_s"]
    out["oracle.tuples_per_s"] = out["oracle.tuples_visited"] / brute_s if brute_s else 0.0
    pass_total = rec.phase_seconds("pass")
    covered = sum(v["self_s"] for k, v in in_pass.items() if k in spans.LAYER_SPANS)
    out["trace.coverage_frac"] = covered / pass_total if pass_total else 0.0
    out["trace.spans"] = len(rec.spans)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
