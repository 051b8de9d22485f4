"""Command-line surface: build groups, print generating functions, run
equivalence and isoclinism queries, verify the table of normalized
invariants, and cross-check against the brute-force oracle.

All mathematical output is exact and deterministic; wall-clock timing is
segregated under a "timing" key so the serialized results can be compared
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import families
from .closed_forms import table_row
from .errors import ConjGFError, InvalidParameters
from .genfun import (
    a_equivalent,
    a_of_t,
    alpha_coefficient,
    b_and_work,
    b_equivalent,
    b_of_t,
    beta_coefficient,
    gf_equal,
    normalize,
)
from .groups import certify
from .groupspec import load_group_spec
from .isoclinism import are_isoclinic
from .oracle import alpha_brute, beta_brute
from .pcp import is_prime
from .ratfun import partial_fractions


@dataclass
class RunReport:
    """Everything one command did: inputs, exact results, checks, timing."""

    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, expected=None, actual=None) -> None:
        entry = {"name": name, "passed": bool(passed)}
        if not passed:
            entry["expected"] = str(expected)
            entry["actual"] = str(actual)
        self.checks.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in sorted(self.inputs.items()):
            lines.append(f"  {key}: {value}")
        lines.append("results:")
        lines.extend(_render_value(self.results, indent=2))
        if self.checks:
            lines.append("checks:")
            for c in self.checks:
                mark = "PASS" if c["passed"] else "FAIL"
                extra = "" if c["passed"] else f"  expected={c['expected']} actual={c['actual']}"
                lines.append(f"  [{mark}] {c['name']}{extra}")
        return "\n".join(lines)


def _render_value(value, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, list):
        return [f"{pad}- {sub}" for sub in value]
    if not isinstance(value, dict):
        return [f"{pad}{value}"]
    out = []
    for key, sub in value.items():
        if isinstance(sub, (dict, list)):
            out += [f"{pad}{key}:", *_render_value(sub, indent + 2)]
        else:
            out.append(f"{pad}{key}: {sub}")
    return out


def cmd_genfun(args) -> RunReport:
    if args.coefficients is not None:
        _check_count("--coefficients", args.coefficients, 0)
    report = RunReport("genfun", {"spec": args.spec, "which": args.which,
                                  "normalized": args.normalized,
                                  "partial_fractions": args.partial_fractions,
                                  "coefficients": args.coefficients})
    g = load_group_spec(args.spec)
    report.results["group"] = {"label": g.label, "order": g.order}
    for name, of_t, coefficient, series in (("A", a_of_t, alpha_coefficient, "alpha"),
                                            ("B", b_of_t, beta_coefficient, "beta")):
        if args.which not in (name, "both"):
            continue
        gf = of_t(g)
        if args.normalized:
            gf = normalize(gf, g.order)
        report.results[name] = payload = {**gf.to_payload(), "display": str(gf)}
        if args.partial_fractions:
            pf = partial_fractions(gf)
            payload.update(partial_fractions=pf.to_payload(), partial_fractions_display=str(pf))
        if args.coefficients is not None:
            report.results[series] = [coefficient(g, n) for n in range(args.coefficients + 1)]
    return report


def cmd_certify(args) -> RunReport:
    report = RunReport("certify", {"spec": args.spec})
    g = load_group_spec(args.spec)
    cert = certify(g)
    report.results["group"] = {"label": g.label, "order": g.order}
    report.results["certificate"] = [
        {"check": c.name, "status": c.status, "detail": c.detail} for c in cert.checks
    ]
    report.check("certificate", cert.ok, "all checks pass", cert.first_failure())
    return report


def cmd_verify_table(args) -> RunReport:
    primes = args.p or [2, 3]
    report = RunReport("verify-table", {"primes": primes})
    for p in primes:
        try:
            prime, actual = is_prime(p), p
        except InvalidParameters as exc:  # p past EXACT_PRIME_LIMIT fails its own row only
            prime, actual = False, repr(exc)
        if not prime:
            report.check(f"p={p} prime", False, "a prime", actual)
            continue
        for family in ("abelian",) + (families.GAMMA_FAMILIES if p == 2 else families.PHI_FAMILIES):
            name = f"{family}(p={p})"
            try:
                g = families.build_stem_group(family, p)
                expected_a, expected_b = table_row(family, p)
                got_a = normalize(a_of_t(g), g.order)
                got_b = normalize(b_of_t(g), g.order)
                report.check(f"{name} A", gf_equal(got_a, expected_a), expected_a, got_a)
                report.check(f"{name} B", gf_equal(got_b, expected_b), expected_b, got_b)
            except ConjGFError as exc:
                report.check(name, False, "construction + table match", repr(exc))
            g = None  # uncached: release this table before the next one is built
    report.results["rows_checked"] = len(report.checks)
    report.results["rows_failed"] = sum(1 for c in report.checks if not c["passed"])
    return report


def cmd_equiv(args) -> RunReport:
    report = RunReport("equiv", {"spec1": args.spec1, "spec2": args.spec2, "mode": args.mode})
    g = load_group_spec(args.spec1)
    h = load_group_spec(args.spec2)
    report.results["groups"] = [
        {"label": g.label, "order": g.order},
        {"label": h.label, "order": h.order},
    ]
    if args.mode == "A":
        verdict = a_equivalent(g, h)
        report.results["a_equivalent"] = verdict
        # A's term c/(1 - m t) stands for c m classes of size |G|/m
        report.results["class_equations"] = [
            sorted(x.order // m for m, _, c in a_of_t(x).terms for _ in range(int(c * m))) for x in (g, h)]
    elif args.mode == "B":
        verdict = b_equivalent(g, h)
        report.results["b_equivalent"] = verdict
    else:
        witness = are_isoclinic(g, h)
        verdict = witness is not None
        report.results["isoclinic"] = verdict
        if witness is not None:
            report.results["witness"] = {
                "theta": list(witness.theta),
                "phi": {str(k): v for k, v in sorted(witness.phi.items())},
                "verified": witness.verify(g, h),
            }
    return report


def _check_count(flag: str, count: int, least: int) -> None:
    if count < least:
        raise InvalidParameters(f"{flag} {count} is below {least}")


def cmd_oracle(args) -> RunReport:
    _check_count("--n-max", args.n_max, 0)
    report = RunReport("oracle", {"spec": args.spec, "n_max": args.n_max})
    g = load_group_spec(args.spec)
    report.results["group"] = {"label": g.label, "order": g.order}
    rows = []
    for n in range(args.n_max + 1):
        a_oracle = alpha_brute(g, n)
        b_oracle = beta_brute(g, n)
        a_series = alpha_coefficient(g, n)
        b_series = beta_coefficient(g, n)
        rows.append({
            "n": n,
            "alpha_brute": a_oracle.count, "alpha_series": a_series,
            "beta_brute": b_oracle.count, "beta_series": b_series,
            "records": [a_oracle.record(), b_oracle.record()],
        })
        report.check(f"alpha n={n}", a_oracle.count == a_series, a_series, a_oracle.count)
        report.check(f"beta n={n}", b_oracle.count == b_series, b_series, b_oracle.count)
    report.results["table"] = rows
    return report


# (strategy, the timed call, its (count, work) read after the clock stops)
_BENCH_STRATEGIES = (
    ("eq1_histogram", alpha_coefficient, lambda g, count: (count, len(a_of_t(g).terms))),
    ("brute_alpha", alpha_brute, lambda g, res: (res.count, res.tuples_visited)),
    ("eq4_recursion", lambda g, n: b_of_t(g).coefficient(n),
     lambda g, value: (int(value), b_and_work(g)[1])),
    ("brute_beta", beta_brute, lambda g, res: (res.count, res.tuples_visited)),
)


def _bench_rows(labels: list[str], n_max: int) -> list[dict]:
    catalog = dict(families.small_catalog())
    if unknown := [label for label in labels if label not in catalog]:
        raise InvalidParameters(f"unknown catalog group {unknown[0]!r}; known: {' '.join(catalog)}")
    rows = []
    for label in labels:
        g = catalog[label]
        a_of_t(g), b_of_t(g)  # built before the first timing
        for n in range(1, n_max + 1):
            for strategy, run, read in _BENCH_STRATEGIES:
                t0 = time.perf_counter_ns()
                out = run(g, n)
                nanos = time.perf_counter_ns() - t0
                count, work = read(g, out)
                rows.append({"strategy": strategy, "group": label, "order": g.order,
                             "n": n, "count": count, "nanos": nanos, "work": work})
    return rows


def cmd_bench(args) -> RunReport:
    _check_count("--n-max", args.n_max, 1)
    labels = args.groups or ["S3", "D8", "Q8", "D16", "D32"]
    report = RunReport("bench", {"groups": labels, "n_max": args.n_max, "out": args.out})
    rows = _bench_rows(labels, args.n_max)
    report.results["rows"] = len(rows)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["strategy", "group", "order", "n", "count", "nanos", "work"]
            )
            writer.writeheader()
            writer.writerows(rows)
        report.results["csv"] = args.out
    else:
        report.results["table"] = rows
    d32 = {(r["strategy"], r["n"]): r for r in rows if r["group"] == "D32"}
    if ("eq1_histogram", 2) in d32 and ("brute_alpha", 2) in d32:
        ratio = d32[("brute_alpha", 2)]["work"] / d32[("eq1_histogram", 2)]["work"]
        report.results["d32_n2_work_ratio"] = ratio
        report.check("D32 n=2 eq1 at least 100x cheaper by work", ratio >= 100, ">= 100", ratio)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjgf",
        description="Exact A/B generating functions for simultaneous conjugacy classes",
    )
    parser.add_argument("--json", action="store_true", help="emit the machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genfun", help="compute A and/or B for a group-spec file")
    p.add_argument("spec")
    p.add_argument("--which", choices=["A", "B", "both"], default="both")
    p.add_argument("--normalized", action="store_true", help="substitute t -> t/|G|")
    p.add_argument("--partial-fractions", action="store_true", dest="partial_fractions")
    p.add_argument("--coefficients", type=int, metavar="N",
                   help="also print the series coefficients for n = 0..N")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("certify", help="run the group-axiom certificate")
    p.add_argument("spec")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-table", help="rebuild stem groups and verify the table of normalized invariants")
    p.add_argument("--p", type=int, action="append", help="prime to verify (repeatable; default 2 and 3)")
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("equiv", help="A/B-equivalence or isoclinism of two groups")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--mode", choices=["A", "B", "isoclinic"], required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("oracle", help="brute-force orbit counts vs series coefficients")
    p.add_argument("spec")
    p.add_argument("--n-max", type=int, default=2, dest="n_max")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="work/time comparison of the counting strategies")
    p.add_argument("--groups", nargs="*", help="catalog labels (default: S3 D8 Q8 D16 D32)")
    p.add_argument("--n-max", type=int, default=2, dest="n_max")
    p.add_argument("--out", help="write benchmark CSV here")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        report: RunReport = args.func(args)
    except ConjGFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.timing["seconds"] = time.perf_counter() - t0
    try:
        print(report.to_json() if args.json else report.render(), flush=True)
    except BrokenPipeError:
        # the reader has gone: the rest goes to devnull, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
