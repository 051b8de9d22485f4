"""The benchmark's three workloads.

Each workload makes its inputs from the seed in setup(), and prepare(i)
hands the next pass fresh GroupTables so no pass reuses another's memoized
data.  run_pass() is the timed part: only calls into conjgf, each wrapped
in a span named after the layer it enters.  check_pass(), gate() and
rerun() run outside the timed part.  Every comparison is exact.

Why these workloads:
- table: `conjgf verify-table --p 2 --p 3 --p 5` as a user runs it, stem-group
  cache cold.  It is the paper's headline result; most of its time is the
  order-3125 builds (collection plus certificate) and B(Phi5, 5).
- b_recursion: A and B on fresh tables of non-AC groups built in set-up, so
  the build layer is outside the timed part and the B recursion inside it.
  Phi5(5) has 624 non-central classes over 156 distinct centralizers and
  rewards merging shared centralizers; S6 is not nilpotent and shares little.
  Runnable by hand only: it is too noisy for BENCHMARK.json (see README.md).
- crosscheck: the independent checks users run (brute-force oracles,
  isoclinism witnesses, closed forms, partial fractions) on relabelled
  catalog groups; the pcp build and deep B recursion stay nearly idle here.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import combinations, product

import numpy as np

from conjgf import cli
from conjgf.analysis import center_elements, centralizer_elements, conjugacy_data, is_ac_group
from conjgf.closed_forms import (
    ABELIAN_MAX,
    P1P3_NO_ABELIAN_MAX,
    a_central_quotient_p2,
    a_central_quotient_p3,
    a_dihedral,
    a_extraspecial_p5,
    a_maximal_class,
    b_central_quotient_p2,
    b_central_quotient_p3,
    b_dihedral,
    b_extraspecial_p5,
    b_maximal_class,
    table_row,
)
from conjgf.families import (
    GAMMA_FAMILIES,
    PHI_FAMILIES,
    quaternion,
    small_catalog,
    stem_group,
    symmetric,
)
from conjgf.genfun import a_of_t, alpha_coefficient, b_of_t, beta_coefficient, normalize
from conjgf.groups import GroupTable, induced_table, is_abelian_subset
from conjgf.isoclinism import are_isoclinic
from conjgf.oracle import alpha_brute, beta_brute
from conjgf.pcp import collect
from conjgf.ratfun import RationalGF, partial_fractions

VERIFY_ARGS = ["--json", "verify-table", "--p", "2", "--p", "3", "--p", "5"]
VERIFY_PRIMES = (2, 3, 5)


class Checks:
    """Counts exact checks; a failure is kept with its expected and actual value."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, expected=None, actual=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: expected {expected}, got {actual}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def relabel(g: GroupTable, rng: np.random.Generator) -> GroupTable:
    """A copy of g whose non-identity elements are permuted at random; the
    identity stays at index 0."""
    perm = np.concatenate(([0], 1 + rng.permutation(g.order - 1))).astype(g.mul.dtype)
    mul = np.empty_like(g.mul)
    mul[np.ix_(perm, perm)] = perm[g.mul]
    inv = np.empty_like(g.inv)
    inv[perm] = perm[g.inv]
    return GroupTable(order=g.order, mul=mul, inv=inv,
                      generators=tuple(int(perm[s]) for s in g.generators), label=g.label)


def fresh(g: GroupTable) -> GroupTable:
    """The same table with an empty memo, so nothing computed earlier is reused."""
    return GroupTable(order=g.order, mul=g.mul, inv=g.inv, generators=g.generators, label=g.label)


def gf_digest(*gfs: RationalGF) -> str:
    return hashlib.sha256(json.dumps([f.to_payload() for f in gfs]).encode()).hexdigest()


def families_for(p: int) -> list[str]:
    return ["abelian"] + list(GAMMA_FAMILIES if p == 2 else PHI_FAMILIES)


class Workload:
    """Shared driver hooks; subclasses fill in the passes and checks."""

    variants = 1

    def __init__(self, seed: int, expected: dict, rec) -> None:
        self.seed = seed
        self.expected = expected
        self.rec = rec
        self.checks = Checks()

    def rng(self, variant: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, variant])

    def setup(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        pass

    def run_pass(self):
        raise NotImplementedError

    def check_pass(self, out) -> None:
        raise NotImplementedError

    def gate(self) -> None:
        pass

    def rerun(self) -> None:
        pass

    def table_bytes(self) -> int:
        return 0

    # -- re-runs shared by the workloads, made after the timed part ---------

    def rerun_collect(self) -> None:
        """Replay collect over the |G|*d generator products of every
        presentation the traced run built."""
        rec = self.rec
        seen = set()
        for pres in rec.presentations:
            if id(pres) in seen:
                continue
            seen.add(id(pres))
            orders = pres.relative_orders
            d = len(orders)
            with rec.span("pcp.collect", pres.label):
                for vec in product(*(range(r) for r in orders)):
                    word = [[gi, e] for gi, e in enumerate(vec) if e]
                    for gi in range(d):
                        collect(pres, word + [[gi, 1]])
            rec.count("pcp.collect_calls", pres.compiled_order() * d)

    def rerun_b_top_level(self, g: GroupTable, b_value: RationalGF) -> None:
        """One level of the B recursion rebuilt from public calls: centralizers
        of the non-central classes, induced tables of the distinct non-abelian
        ones, and the sum of t * B_C(x).  The sum must give back b_value."""
        rec = self.rec
        g = fresh(g)
        with rec.span("rerun.classes", g.label):
            cd = conjugacy_data(g)
            zsize = len(center_elements(g))
        reps = [r for r, c in zip(cd.representatives, cd.centralizer_sizes) if c != g.order]
        with rec.span("analysis.centralizers", g.label):
            cents = [centralizer_elements(g, r) for r in reps]
        distinct = list(dict.fromkeys(cents))
        rec.count("analysis.classes", cd.num_classes)
        rec.count("analysis.noncentral_classes", len(reps))
        rec.count("analysis.distinct_centralizers", len(distinct))
        with rec.span("rerun.abelian_test", g.label):
            nonabelian = [e for e in distinct if not is_abelian_subset(g, e)]
        with rec.span("groups.induced_table", g.label):
            subs = {e: induced_table(g, e) for e in nonabelian}
        rec.count("groups.induced_tables", len(nonabelian))
        with rec.span("rerun.sub_b", g.label):
            bh = {e: b_of_t(subs[e]) if e in subs else RationalGF.simple(1, len(e)) for e in distinct}
        with rec.span("ratfun.sum", g.label):
            acc = RationalGF.one()
            for e in cents:
                acc = acc + bh[e].times_t()
            total = acc.over_linear(zsize)
        rec.count("ratfun.adds", len(cents))
        self.checks.check(f"{g.label}: B re-derived from its top-level centralizers",
                          total == b_value, b_value, total)


# ---------------------------------------------------------------------------


class Table(Workload):
    """verify-table for p = 2, 3, 5 through the CLI entry point."""

    def prepare(self, i: int) -> None:
        stem_group.cache_clear()

    def run_pass(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(VERIFY_ARGS))
        return code, buf.getvalue()

    def check_pass(self, out) -> None:
        code, text = out
        want = self.expected["table"]
        self.checks.check("verify-table exit code", code == 0, 0, code)
        report = json.loads(text)
        rows = report["checks"]
        self.checks.check("verify-table check count", len(rows) == want["checks"],
                          want["checks"], len(rows))
        for row in rows:
            self.checks.check(f"verify-table {row['name']}", row["passed"], "PASS", row)
        del report["timing"]
        payload = json.dumps(report, indent=2, sort_keys=True).encode()
        digest = hashlib.sha256(payload).hexdigest()
        self.checks.check("verify-table non-timing JSON sha256",
                          digest == want["payload_sha256"], want["payload_sha256"], digest)

    def groups(self) -> list[GroupTable]:
        """The stem groups the pass built (the cache is still warm)."""
        return [stem_group(f, p) for p in VERIFY_PRIMES for f in families_for(p)]

    def table_bytes(self) -> int:
        return sum(g.mul.nbytes for g in self.groups())

    def gate(self) -> None:
        rec, ck = self.rec, self.checks
        # the p = 2 rows against the brute-force oracle and partial fractions
        for family in families_for(2):
            g = stem_group(family, 2)
            for n in range(3):
                with rec.span("oracle.alpha_brute", g.label):
                    ab = alpha_brute(g, n)
                with rec.span("oracle.beta_brute", g.label):
                    bb = beta_brute(g, n)
                rec.count("oracle.tuples_visited", ab.tuples_visited + bb.tuples_visited)
                with rec.span("genfun.coefficients", g.label):
                    ac, bc = alpha_coefficient(g, n), beta_coefficient(g, n)
                ck.check(f"{family}(2) alpha_{n} oracle", ab.count == ac, ac, ab.count)
                ck.check(f"{family}(2) beta_{n} oracle", bb.count == bc, bc, bb.count)
            for which, gf in (("A", a_of_t(g)), ("B", b_of_t(g))):
                with rec.span("ratfun.partial_fractions", g.label):
                    pf = partial_fractions(gf)
                ck.check(f"{family}(2) {which} partial fractions recombine",
                         pf.recombine() == gf, gf, pf.recombine())
        # the extraspecial rows against their closed form
        for family, p in (("Phi5", 5), ("Phi5", 3), ("Gamma5", 2)):
            g = stem_group(family, p)
            with rec.span("closed_forms.eval", g.label):
                fa, fb = a_extraspecial_p5(p), b_extraspecial_p5(p)
            ck.check(f"{family}({p}) A closed form", a_of_t(g) == fa, fa, a_of_t(g))
            ck.check(f"{family}({p}) B closed form", b_of_t(g) == fb, fb, b_of_t(g))
        # isoclinic rows have isoclinic stem groups
        for family, partner in (("Gamma2", quaternion(8)), ("Gamma3", quaternion(16))):
            g = stem_group(family, 2)
            with rec.span("isoclinism.search", g.label):
                w = are_isoclinic(g, partner)
            rec.count("isoclinism.pairs")
            ck.check(f"{family}(2) isoclinic to {partner.label}", w is not None, "witness", None)
            if w is not None:
                with rec.span("isoclinism.verify", g.label):
                    ok = w.verify(g, partner)
                ck.check(f"{family}(2) ~ {partner.label} witness verifies", ok, True, ok)

    def rerun(self) -> None:
        for g in self.groups():
            self.rerun_b_top_level(g, b_of_t(g))
        self.rerun_collect()


# ---------------------------------------------------------------------------

B_GROUPS = (("Phi5", 5), ("Phi5", 3), ("Phi7", 3), ("Phi8", 3), ("Gamma5", 2), ("S6", 0))


class BRecursion(Workload):
    """A and B of non-AC groups; the tables are built and relabelled in set-up."""

    variants = 3

    def setup(self) -> None:
        bases = [symmetric(6) if f == "S6" else stem_group(f, p) for f, p in B_GROUPS]
        self.inputs = []
        for v in range(self.variants):
            rng = self.rng(v)
            self.inputs.append([relabel(g, rng) for g in bases])
        stem_group.cache_clear()
        self.results: list[list[tuple]] = []

    def prepare(self, i: int) -> None:
        self.tables = [fresh(g) for g in self.inputs[i % self.variants]]

    def run_pass(self):
        rec = self.rec
        out = []
        for g in self.tables:
            with rec.span("genfun.a", g.label):
                a = a_of_t(g)
            with rec.span("genfun.b", g.label):
                b = b_of_t(g)
            out.append((a, b))
        return out

    def check_pass(self, out) -> None:
        self.results.append(out)
        self.last_tables = self.tables

    def table_bytes(self) -> int:
        return sum(g.mul.nbytes for tables in self.inputs for g in tables)

    def gate(self) -> None:
        rec, ck = self.rec, self.checks
        want_digest = self.expected["b_recursion"]["ab_sha256"]
        refs = {}
        for family, p in B_GROUPS:
            if family == "S6":
                continue
            with rec.span("closed_forms.table_row", family):
                ta, tb = table_row(family, p)
            refs[family, p] = (ta, tb, None, None)
            if family in ("Phi5", "Gamma5"):
                with rec.span("closed_forms.eval", family):
                    refs[family, p] = (ta, tb, a_extraspecial_p5(p), b_extraspecial_p5(p))
        for k, out in enumerate(self.results):
            for (family, p), (g, (a, b)) in zip(B_GROUPS, zip(self.inputs[k % self.variants], out)):
                name = f"pass {k} {g.label}"
                digest, want = gf_digest(a, b), want_digest.get(g.label)
                ck.check(f"{name} A,B identical to the reference", digest == want, want, digest)
                if family == "S6":
                    continue
                ta, tb, fa, fb = refs[family, p]
                with rec.span("ratfun.normalize", g.label):
                    na, nb = normalize(a, g.order), normalize(b, g.order)
                ck.check(f"{name} normalized A = table row", na == ta, ta, na)
                ck.check(f"{name} normalized B = table row", nb == tb, tb, nb)
                if fa is not None:
                    ck.check(f"{name} A = closed form", a == fa, fa, a)
                    ck.check(f"{name} B = closed form", b == fb, fb, b)
        # S6 is in no table row: pin its series against the brute-force oracle
        s6 = self.last_tables[-1]
        for n in range(3):
            with rec.span("oracle.alpha_brute", s6.label):
                ab = alpha_brute(s6, n)
            with rec.span("oracle.beta_brute", s6.label):
                bb = beta_brute(s6, n)
            rec.count("oracle.tuples_visited", ab.tuples_visited + bb.tuples_visited)
            with rec.span("genfun.coefficients", s6.label):
                ac, bc = alpha_coefficient(s6, n), beta_coefficient(s6, n)
            ck.check(f"S6 alpha_{n} oracle", ab.count == ac, ac, ab.count)
            ck.check(f"S6 beta_{n} oracle", bb.count == bc, bc, bb.count)
        for g, (a, b) in zip(self.last_tables, self.results[-1]):
            ck.check(f"{g.label} is not an AC group", not is_ac_group(g), False, True)
            with rec.span("ratfun.partial_fractions", g.label):
                pf = partial_fractions(b)
            ck.check(f"{g.label} B partial fractions recombine", pf.recombine() == b, b, pf.recombine())
        # two relabellings of one group are isoclinic, with a checked witness
        g, h = self.inputs[0][4], self.inputs[1][4]
        with rec.span("isoclinism.search", g.label):
            w = are_isoclinic(g, h)
        rec.count("isoclinism.pairs")
        ck.check(f"{g.label} relabellings isoclinic", w is not None, "witness", None)
        if w is not None:
            with rec.span("isoclinism.verify", g.label):
                ok = w.verify(g, h)
            ck.check(f"{g.label} relabelling witness verifies", ok, True, ok)

    def rerun(self) -> None:
        for g, (a, b) in zip(self.inputs[0], self.results[0]):
            self.rerun_b_top_level(g, b)
        self.rerun_collect()


# ---------------------------------------------------------------------------

TRIOS = (("D16", "SD16", "Q16"), ("D32", "SD32", "Q32"))

# group -> closed forms that must equal its A and B (acceptance criterion 2)
WITNESS_FORMS = (
    ("Q8", a_central_quotient_p2, b_central_quotient_p2, (2, 3)),
    ("D8", a_central_quotient_p2, b_central_quotient_p2, (2, 3)),
    ("Heis27", a_central_quotient_p2, b_central_quotient_p2, (3, 3)),
    ("Phi4", a_central_quotient_p3, b_central_quotient_p3, (3, 5, True)),
    ("Gamma4a2", a_central_quotient_p3, b_central_quotient_p3, (2, 5, True)),
    ("Phi6", a_central_quotient_p3, b_central_quotient_p3, (3, 5, False)),
    ("D32", a_maximal_class, b_maximal_class, (2, 5, ABELIAN_MAX)),
    ("Q32", a_maximal_class, b_maximal_class, (2, 5, ABELIAN_MAX)),
    ("SD32", a_maximal_class, b_maximal_class, (2, 5, ABELIAN_MAX)),
    ("Phi9", a_maximal_class, b_maximal_class, (3, 5, ABELIAN_MAX)),
    ("Phi10", a_maximal_class, b_maximal_class, (3, 5, P1P3_NO_ABELIAN_MAX)),
    ("D8", a_dihedral, b_dihedral, (4,)),
    ("D16", a_dihedral, b_dihedral, (8,)),
    ("D32", a_dihedral, b_dihedral, (16,)),
    ("Gamma5a1", a_extraspecial_p5, b_extraspecial_p5, (2,)),
    ("Phi5", a_extraspecial_p5, b_extraspecial_p5, (3,)),
)

ORACLE_MAX_ORDER = 32
ORACLE_MAX_N = 3


class Crosscheck(Workload):
    """Oracles, isoclinism and closed forms on relabelled catalog groups and
    the p = 3 stem groups."""

    variants = 8  # labellings per run; see "Inputs and the seed" in README.md

    def setup(self) -> None:
        bases = dict(small_catalog())
        bases.update((f, stem_group(f, 3)) for f in PHI_FAMILIES)
        self.inputs = []
        for v in range(self.variants):
            rng = self.rng(v)
            self.inputs.append({name: relabel(g, rng) for name, g in bases.items()})
        small_catalog.cache_clear()
        stem_group.cache_clear()
        self.oracle_groups = [name for name, g in bases.items()
                              if name not in PHI_FAMILIES and g.order <= ORACLE_MAX_ORDER]
        self.pairs = [pair for trio in TRIOS for pair in combinations(trio, 2)]
        self.pairs += list(combinations(PHI_FAMILIES, 2))

    def prepare(self, i: int) -> None:
        self.tables = {name: fresh(g) for name, g in self.inputs[i % self.variants].items()}

    def run_pass(self):
        rec, t = self.rec, self.tables
        oracle = []
        for name in self.oracle_groups:
            g = t[name]
            for n in range(ORACLE_MAX_N + 1):
                with rec.span("oracle.alpha_brute", name):
                    ab = alpha_brute(g, n)
                with rec.span("oracle.beta_brute", name):
                    bb = beta_brute(g, n)
                with rec.span("genfun.coefficients", name):
                    ac, bc = alpha_coefficient(g, n), beta_coefficient(g, n)
                oracle.append((name, n, ab, bb, ac, bc))
        iso = []
        for x, y in self.pairs:
            with rec.span("isoclinism.search", f"{x}~{y}"):
                w = are_isoclinic(t[x], t[y])
            ok = None
            if w is not None:
                with rec.span("isoclinism.verify", f"{x}~{y}"):
                    ok = w.verify(t[x], t[y])
            iso.append((x, y, w is not None, ok))
        forms = []
        for name, fa, fb, args in WITNESS_FORMS:
            g = t[name]
            with rec.span("genfun.a", name):
                a = a_of_t(g)
            with rec.span("genfun.b", name):
                b = b_of_t(g)
            with rec.span("closed_forms.eval", name):
                ea, eb = fa(*args), fb(*args)
            with rec.span("ratfun.partial_fractions", name):
                pa, pb = partial_fractions(a), partial_fractions(b)
            forms.append((f"{name} {fa.__name__[2:]}", a, b, ea, eb, pa, pb))
        return oracle, iso, forms

    def check_pass(self, out) -> None:
        oracle, iso, forms = out
        ck, rec = self.checks, self.rec
        pinned = self.expected["crosscheck"]["pinned"]
        for name, n, ab, bb, ac, bc in oracle:
            rec.count("oracle.tuples_visited", ab.tuples_visited + bb.tuples_visited)
            ck.check(f"{name} alpha_{n} oracle", ab.count == ac, ac, ab.count)
            ck.check(f"{name} beta_{n} oracle", bb.count == bc, bc, bb.count)
            for kind, value in (("alpha", ab.count), ("beta", bb.count)):
                key = f"{kind} {name} {n}"
                if key in pinned:
                    ck.check(f"pinned {key}", value == pinned[key], pinned[key], value)
        isoclinic = set(self.expected["crosscheck"]["isoclinic_pairs"])
        for x, y, found, ok in iso:
            rec.count("isoclinism.pairs")
            want = f"{x}~{y}" in isoclinic
            ck.check(f"{x}~{y} isoclinic is {want}", found == want, want, found)
            if found:
                ck.check(f"{x}~{y} witness verifies", ok, True, ok)
        for name, a, b, ea, eb, pa, pb in forms:
            ck.check(f"{name} A = closed form", a == ea, ea, a)
            ck.check(f"{name} B = closed form", b == eb, eb, b)
            ck.check(f"{name} A partial fractions recombine", pa.recombine() == a, a, pa.recombine())
            ck.check(f"{name} B partial fractions recombine", pb.recombine() == b, b, pb.recombine())

    def table_bytes(self) -> int:
        return sum(g.mul.nbytes for tables in self.inputs for g in tables.values())

    def gate(self) -> None:
        rec, ck = self.rec, self.checks
        for family in PHI_FAMILIES:
            g = self.tables[family]
            with rec.span("closed_forms.table_row", family):
                ta, tb = table_row(family, 3)
            with rec.span("genfun.a", family):
                a = a_of_t(g)
            with rec.span("genfun.b", family):
                b = b_of_t(g)
            with rec.span("ratfun.normalize", family):
                na, nb = normalize(a, g.order), normalize(b, g.order)
            ck.check(f"{family}(3) normalized A = table row", na == ta, ta, na)
            ck.check(f"{family}(3) normalized B = table row", nb == tb, tb, nb)

    def rerun(self) -> None:
        for family in PHI_FAMILIES:
            g = self.tables[family]
            self.rerun_b_top_level(g, b_of_t(g))
        self.rerun_collect()


WORKLOADS = {"table": Table, "b_recursion": BRecursion, "crosscheck": Crosscheck}
