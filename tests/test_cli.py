from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conjgf import cli, families, groups, pcp
from conjgf.analysis import conjugacy_data
from conjgf.cli import main
from conjgf.families import stem_group
from test_groups import NONASSOC_LOOP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def gamma3_spec(tmp_path):
    return write_spec(tmp_path, "gamma3.json", {"kind": "family", "name": "Gamma3", "p": 2})


def test_genfun_gamma3_partial_fractions(capsys, gamma3_spec):
    code, out = run_cli(capsys, "--json", "genfun", gamma3_spec, "--which", "A",
                        "--partial-fractions")
    assert code == 0
    payload = json.loads(out)
    # the three-term display of A for the dihedral group of order 16
    assert payload["results"]["A"]["partial_fractions"] == [
        [1, 2, 4, 1, 1],
        [3, 8, 8, 1, 1],
        [1, 8, 16, 1, 1],
    ]
    assert payload["results"]["A"]["denominator"] == [["4", 1], ["8", 1], ["16", 1]]
    assert payload["results"]["A"]["numerator"] == ["1", "-21", "92"]


def test_closed_pipe_exits_quietly(monkeypatch, gamma3_spec):
    # a stdout whose reader has gone: each write raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["genfun", gamma3_spec, "--partial-fractions"]) == 0


def test_genfun_abelian_both(capsys, tmp_path):
    spec = write_spec(tmp_path, "c7.json", {"kind": "family", "name": "abelian", "p": 7})
    code, out = run_cli(capsys, "--json", "genfun", spec, "--which", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["A"] == payload["results"]["B"]
    assert payload["results"]["A"]["denominator"] == [["7", 1]]


def test_genfun_normalized_phi10(capsys, tmp_path):
    spec = write_spec(tmp_path, "phi10.json", {"kind": "family", "name": "Phi10", "p": 3})
    code, out = run_cli(capsys, "--json", "genfun", spec, "--which", "B", "--normalized",
                        "--partial-fractions")
    assert code == 0
    payload = json.loads(out)
    # Table row for Phi10 at p = 3: -1/3, 8/9, 4/9 over poles 1/81, 1/27, 1/9
    assert payload["results"]["B"]["partial_fractions"] == [
        [-1, 3, 1, 81, 1],
        [8, 9, 1, 27, 1],
        [4, 9, 1, 9, 1],
    ]


def test_genfun_deterministic_modulo_timing(capsys, gamma3_spec):
    _, out1 = run_cli(capsys, "--json", "genfun", gamma3_spec, "--coefficients", "4")
    _, out2 = run_cli(capsys, "--json", "genfun", gamma3_spec, "--coefficients", "4")
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("timing"), p2.pop("timing")
    assert p1 == p2
    # alpha_4 = (2*16^4 + 6*8^4 + 8*4^4)/16; beta_4 by convolving the display
    assert p1["results"]["alpha"] == [1, 7, 64, 736, 9856]
    assert p1["results"]["beta"] == [1, 7, 46, 316, 2296]


def test_certify_command(capsys, gamma3_spec):
    code, out = run_cli(capsys, "--json", "certify", gamma3_spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["passed"] is True


def test_certify_names_failing_axiom_and_witness(capsys, tmp_path):
    spec = write_spec(tmp_path, "loop.json", {"kind": "cayley", "table": NONASSOC_LOOP})
    assert main(["certify", spec]) == 2
    err = capsys.readouterr().err
    assert "associativity" in err
    assert re.search(r"\(\d+, \d+, \d+\)", err)


@pytest.mark.parametrize("command", ["genfun", "certify"])
def test_inconsistent_pcp_spec_names_its_condition(capsys, tmp_path, command):
    # [g1, g0] = g1 with g1 of order 9: phi^3(g1) = g1^8, not g1
    spec = write_spec(tmp_path, "bad.json", {
        "kind": "pcp", "p": 3, "relative_orders": [3, 9], "power_words": [None, None],
        "commutators": [{"left": 1, "right": 0, "word": [0, 1]}], "label": "bad"})
    assert main([command, spec]) == 2
    captured = capsys.readouterr()
    assert "bad: level g0 fails Hoelder's conditions: phi^3 is not conjugation by w at g1" in captured.err
    assert captured.out == ""


def test_certify_command_certifies_once(capsys, tmp_path, monkeypatch):
    from conjgf import groups

    runs = []
    spanning = groups._spanning_generators
    monkeypatch.setattr(groups, "_spanning_generators",
                        lambda g, candidates: runs.append(g.order) or spanning(g, candidates))
    stem_group.cache_clear()
    spec = write_spec(tmp_path, "phi5.json", {"kind": "family", "name": "Phi5", "p": 3})
    code, _ = run_cli(capsys, "--json", "certify", spec)
    assert code == 0
    assert runs == [243]


def test_verify_table_default(capsys):
    code, out = run_cli(capsys, "--json", "verify-table")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["rows_failed"] == 0
    # abelian + 7 Gamma rows + abelian + 9 Phi rows, two checks (A and B) each
    assert payload["results"]["rows_checked"] == (8 + 10) * 2


def test_verify_table_holds_one_table_at_a_time(capsys):
    # at p = 5 the order-3125 groups keep their top level factored: no
    # 3125 x 3125 table is built, and each group is released once its row is
    # checked, so the peak is under half of one such table
    stem_group.cache_clear()
    tracemalloc.start()
    try:
        code = main(["--json", "verify-table", "--p", "5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 0.5 * 2 * 3125**2, f"verify-table peak {peak} bytes"
    assert stem_group.cache_info().currsize == 0


def _spy_tables(monkeypatch) -> tuple[list, list]:
    """(orders of the tables each CyclicExtension.table builds, labels of the
    groups whose `mul` is read), filled as they happen."""
    built, read = [], []
    table, mul = pcp.CyclicExtension.table, groups.GroupTable.mul

    def spy_table(ext, out):
        built.append(ext.r * ext.m)
        return table(ext, out)

    def spy_mul(g):
        read.append(g.label)
        return mul.fget(g)

    monkeypatch.setattr(pcp.CyclicExtension, "table", spy_table)
    monkeypatch.setattr(groups.GroupTable, "mul", property(spy_mul))
    return built, read


def test_verify_table_builds_no_top_table(capsys, monkeypatch):
    # every table a p = 5 run builds is a level below the top, of order at
    # most 5^4, and no group's `mul` is read: fingerprints, K, A and B read
    # products only
    built, read = _spy_tables(monkeypatch)
    code, out = run_cli(capsys, "--json", "verify-table", "--p", "5")
    assert code == 0 and json.loads(out)["results"] == {"rows_checked": 20, "rows_failed": 0}
    assert read == [] and built and max(built) == 5**4


def test_verify_table_p7_in_one_run(capsys, monkeypatch):
    # the headline target: all ten rows at p = 7, order 7^5 = 16807, with no
    # 16807 x 16807 table read or built, at under 0.15 of one
    stem_group.cache_clear()
    built, read = _spy_tables(monkeypatch)
    tracemalloc.start()
    try:
        code = main(["--json", "verify-table", "--p", "7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"] == {"rows_checked": 20, "rows_failed": 0}
    assert all(check["passed"] for check in report["checks"])
    assert read == [] and max(built) == 7**4
    assert peak <= 0.15 * 2 * 7**10, f"verify-table peak {peak} bytes"


def test_verify_table_payload_is_pinned(capsys):
    # the report without its timing key is byte-for-byte the same from run to run
    code, out = run_cli(capsys, "--json", "verify-table", "--p", "2", "--p", "3", "--p", "5")
    assert code == 0
    report = json.loads(out)
    del report["timing"]
    payload = json.dumps(report, indent=2, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "0e90d39c5d1663c4f11ccd1be6c110c342eb539800378c1b940a9f9a7a35657e")


@pytest.mark.parametrize("spec, normalized, digest", [
    ("gamma3.json", False, "dd3db721e96efff59db4b8f09d4bcab6d76f47acc89ba43884f719f1587f5aa6"),
    ("gamma3.json", True, "4d1d9822f63d212f1c77343ad0d5ef447c1bd6ae64dab6d1cd5e5a062c7b297e"),
    ("heisenberg27.json", False, "1e14bcd1c057ec82e6b6298bf6b7afc38e13925612c89b70516f5e9f6a1a2073"),
    ("heisenberg27.json", True, "05ec8369f6a9d1abcbfc7e9f3e3575bc09dcbe3528e0698efb4441d43cda7944"),
    ("phi5_p3.json", False, "34f7e314ae7139d45e0403788169627da10a0640fb7b2e478f04ce08b6c2440e"),
    ("phi5_p3.json", True, "c70cb3dd2fbb40347ebf91653c5814e26d063939c628b6553ffeb366f2569a82"),
    ("s3.json", False, "a26d3415363341ada17d90a5d8d17e4c2c7b55aea612023fdf78795124fa8428"),
    ("s3.json", True, "124904b7b4d5bc54b7a3c0442309023ebd38dd51ba7f05234c7f69c20fabdc97"),
])
def test_genfun_payload_is_pinned(capsys, spec, normalized, digest):
    # A, B, their partial fractions and coefficients, byte for byte, for each shipped spec
    argv = ["--json", "genfun", str(REPO_ROOT / "specs" / spec), "--partial-fractions",
            "--coefficients", "4", *(["--normalized"] if normalized else [])]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    del report["timing"]
    report["inputs"]["spec"] = spec
    payload = json.dumps(report, indent=2, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


def test_module_entry_point_runs_from_a_checkout():
    # `python -m conjgf` from an uninstalled checkout, with only src/ on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "conjgf", "--json", "verify-table", "--p", "2"],
                          cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["rows_failed"] == 0


# Forks `python -m conjgf ARGS` from a small launcher and prints its exit code,
# wall seconds and peak RSS in KiB, read by os.wait4.  A process started straight
# from the test process would inherit that process's peak RSS through exec.
_WAIT4_LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "conjgf", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def _measured_run(*argv) -> tuple[int, str, float, float]:
    """(exit code, stderr, wall seconds, peak RSS in MiB) of `python -m conjgf` from the checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WAIT4_LAUNCHER, *argv], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    code, wall, peak_kib = proc.stdout.split()
    return int(code), proc.stderr, float(wall), int(peak_kib) / 1024


def test_genfun_refuses_requests_over_the_budget(tmp_path):
    # C16808's table is one order past the budget, refused before its
    # presentation is built; a cayley spec past the budget is refused from its
    # size, before its text is parsed (the padding here is not JSON at all)
    spec = write_spec(tmp_path, "c16808.json", {"kind": "family", "name": "cyclic", "p": 7**5 + 1})
    code, err, wall, peak_mib = _measured_run("genfun", spec)
    assert code == 2 and "error: C16808 needs 565017728 bytes, over the budget of 564950498 bytes" in err, err
    assert wall < 1 and peak_mib < 100, (wall, peak_mib)
    big = tmp_path / "big.json"
    big.write_text('{"kind": "cayley", "table": [[0]]}', encoding="utf-8")
    with open(big, "r+b") as fh:
        fh.truncate(30_000_000)  # sparse: nothing is written
    code, err, wall, peak_mib = _measured_run("genfun", str(big))
    assert code == 2 and "a spec of 30000000 bytes needs 750000000 bytes" in err, err
    assert peak_mib < 100, peak_mib


def test_integers_past_the_digit_limit_exit_2(capsys, tmp_path):
    # Python writes and reads no int of more than 4300 digits: C(10^2999)'s
    # estimate has 5999 digits, and json.loads refuses a 5000-digit literal
    big = tmp_path / "c.json"
    big.write_text('{"kind": "family", "name": "cyclic", "p": 1' + "0" * 2999 + "}", encoding="utf-8")
    huge = tmp_path / "h.json"
    huge.write_text('{"kind": "family", "name": "cyclic", "p": 1' + "0" * 4999 + "}", encoding="utf-8")
    for spec, message in ((big, "needs over 2^19925 bytes, over the budget"), (huge, "not valid JSON: Exceeds the limit")):
        assert main(["genfun", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err


def test_verify_table_rejects_large_prime(capsys, monkeypatch):
    # p = 13: the abelian and Phi2 rows verify, and each group of order 13^4 or
    # 13^5 is refused by the budget before its table is built
    code, out = run_cli(capsys, "--json", "verify-table", "--p", "13")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["abelian(p=13) A"]["passed"] and checks["Phi2(p=13) B"]["passed"]
    assert "BudgetExceeded('Phi3(13) needs 1631461442 bytes" in checks["Phi3(p=13)"]["actual"]
    assert len(checks) == 2 * 2 + 8
    # p = 9 is not prime: one failed check, and no stem group is built
    built = []
    monkeypatch.setattr(families, "build_stem_group", lambda *args: built.append(args))
    code, out = run_cli(capsys, "--json", "verify-table", "--p", "9")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "p=9 prime", "passed": False, "expected": "a prime", "actual": "9"}]
    assert built == []


def test_verify_table_huge_prime_fails_its_own_row(capsys):
    # primality is exact only below EXACT_PRIME_LIMIT: 2^89 - 1 (prime) past it fails
    # its own check with the error, and the p = 2 rows after it still run
    huge = 2**89 - 1
    code, out = run_cli(capsys, "--json", "verify-table", "--p", str(huge), "--p", "2")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[0]["name"] == f"p={huge} prime" and not checks[0]["passed"]
    assert "InvalidParameters" in checks[0]["actual"] and "exactly" in checks[0]["actual"]
    assert len(checks) == 1 + 8 * 2 and all(c["passed"] for c in checks[1:])


def test_equiv_modes(capsys, tmp_path):
    d8 = write_spec(tmp_path, "d8.json", {"kind": "family", "name": "dihedral", "p": 8})
    q8 = write_spec(tmp_path, "q8.json", {"kind": "family", "name": "quaternion", "p": 8})
    c6 = write_spec(tmp_path, "c6.json", {"kind": "family", "name": "cyclic", "p": 6})
    s3 = write_spec(tmp_path, "s3.json", {"kind": "family", "name": "symmetric", "p": 3})

    code, out = run_cli(capsys, "--json", "equiv", d8, q8, "--mode", "A")
    assert code == 0 and json.loads(out)["results"]["a_equivalent"] is True

    code, out = run_cli(capsys, "--json", "equiv", d8, q8, "--mode", "isoclinic")
    payload = json.loads(out)
    assert code == 0 and payload["results"]["witness"]["verified"] is True

    code, out = run_cli(capsys, "--json", "equiv", c6, s3, "--mode", "B")
    assert code == 0 and json.loads(out)["results"]["b_equivalent"] is False


def test_equiv_a_reads_class_equations_from_a(capsys, monkeypatch, survey):
    # the class equations printed from A's terms equal the orbit sizes of conjugation
    by_name = {str(i): g for i, g in enumerate(survey)}
    monkeypatch.setattr(cli, "load_group_spec", by_name.__getitem__)
    names = list(by_name)
    for first, second in zip(names[::2], names[1::2]):
        code, out = run_cli(capsys, "--json", "equiv", first, second, "--mode", "A")
        printed = json.loads(out)["results"]["class_equations"]
        want = [list(conjugacy_data(by_name[n]).class_equation) for n in (first, second)]
        assert code == 0 and printed == want, (by_name[first].label, by_name[second].label)


def test_equiv_phi9_phi10_not_isoclinic(capsys, tmp_path):
    # their quotients are isomorphic and tie on order and class size in G/Z(G)
    phi9 = write_spec(tmp_path, "phi9.json", {"kind": "family", "name": "Phi9", "p": 3})
    phi10 = write_spec(tmp_path, "phi10.json", {"kind": "family", "name": "Phi10", "p": 3})
    code, out = run_cli(capsys, "--json", "equiv", phi9, phi10, "--mode", "isoclinic")
    assert code == 0 and json.loads(out)["results"]["isoclinic"] is False


@pytest.mark.parametrize("other", ["s3.json", "heisenberg27.json"])
def test_equiv_unequal_quotient_orders_not_isoclinic_past_the_cap(capsys, tmp_path, other):
    # |Phi5(5)/Z| = 625 is over the quotient cap; 6 and 9 differ from it
    phi5 = write_spec(tmp_path, "phi5.json", {"kind": "family", "name": "Phi5", "p": 5})
    code, out = run_cli(capsys, "--json", "equiv", phi5, str(REPO_ROOT / "specs" / other), "--mode", "isoclinic")
    assert code == 0 and json.loads(out)["results"]["isoclinic"] is False


def test_oracle_command(capsys, tmp_path):
    s3 = write_spec(tmp_path, "s3.json", {"kind": "family", "name": "symmetric", "p": 3})
    code, out = run_cli(capsys, "--json", "oracle", s3, "--n-max", "3")
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]["table"]
    assert [r["alpha_brute"] for r in rows] == [1, 3, 11, 49]
    assert [r["beta_brute"] for r in rows] == [1, 3, 8, 21]
    assert all(c["passed"] for c in payload["checks"])


def test_bench_csv(capsys, tmp_path):
    out_csv = tmp_path / "bench.csv"
    code, out = run_cli(capsys, "--json", "bench", "--groups", "D32", "Gamma5a1", "S4",
                        "--n-max", "2", "--out", str(out_csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["d32_n2_work_ratio"] >= 100
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["strategy"] for r in rows} == {"eq1_histogram", "brute_alpha",
                                             "eq4_recursion", "brute_beta"}
    d32_brute = next(r for r in rows if r["strategy"] == "brute_alpha" and r["n"] == "2")
    assert int(d32_brute["work"]) == 1024
    # distinct non-central rows summed plus non-abelian nodes computed
    eq4_work = {(r["group"], int(r["work"])) for r in rows if r["strategy"] == "eq4_recursion"}
    assert eq4_work == {("D32", 10), ("Gamma5a1", 76), ("S4", 26)}
    # the distinct centralizer orders, one term of A each
    eq1_work = {(r["group"], int(r["work"])) for r in rows if r["strategy"] == "eq1_histogram"}
    assert eq1_work == {("D32", 3), ("Gamma5a1", 2), ("S4", 4)}


def test_bench_builds_a_and_b_before_the_first_timing(monkeypatch):
    # eq4's n = 1 row times one coefficient read, as eq1's does, not the B recursion
    from conjgf import cli
    from conjgf.families import dihedral

    d8 = dihedral(8)
    monkeypatch.setattr(families, "small_catalog", lambda: (("D8", d8),))
    memo_at_first_timing = []
    clock = cli.time.perf_counter_ns

    def spy():
        if not memo_at_first_timing:
            memo_at_first_timing.append(set(d8._cache))
        return clock()

    monkeypatch.setattr(cli.time, "perf_counter_ns", spy)
    rows = cli._bench_rows(["D8"], 1)
    assert {"a_of_t", "b_and_work"} <= memo_at_first_timing[0]
    assert [r["strategy"] for r in rows] == ["eq1_histogram", "brute_alpha", "eq4_recursion", "brute_beta"]


def test_bench_rejects_unknown_group(capsys):
    assert main(["bench", "--groups", "S3", "Nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "'Nope'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["oracle", str(REPO_ROOT / "specs" / "s3.json"), "--n-max", "-1"],
    ["bench", "--groups", "S3", "--n-max", "-1"],
    ["bench", "--groups", "S3", "--n-max", "0"],  # bench rows start at n = 1
], ids=["oracle -1", "bench -1", "bench 0"])
def test_n_max_that_checks_nothing_is_rejected(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--n-max" in captured.err
    assert captured.out == ""


def test_negative_coefficient_count_is_rejected(capsys):
    assert main(["--json", "genfun", str(REPO_ROOT / "specs" / "s3.json"), "--coefficients", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--coefficients -3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, want", [([], None), (["--coefficients", "0"], [1])],
                         ids=["absent", "0"])
def test_coefficient_count_zero_prints_n_0_alone(capsys, extra, want):
    _, out = run_cli(capsys, "--json", "genfun", str(REPO_ROOT / "specs" / "s3.json"), *extra)
    payload = json.loads(out)
    assert payload["inputs"]["coefficients"] == (None if want is None else 0)
    assert payload["results"].get("alpha") == want
    assert payload["results"].get("beta") == want


def test_error_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(SystemExit):
        main(["genfun"])  # missing positional
    bad = write_spec(tmp_path, "bad.json", {"kind": "family", "name": "Phi5", "p": 2})
    code = main(["genfun", bad])
    assert code == 2


@pytest.mark.parametrize("command", [
    # the README's commands on the files under specs/
    "genfun specs/gamma3.json --partial-fractions",
    "oracle specs/s3.json --n-max 3",
    "genfun specs/phi5_p3.json --which B --normalized",
    "equiv specs/gamma3.json specs/heisenberg27.json --mode A",
    "certify specs/heisenberg27.json",  # the one pcp-kind spec
])
def test_shipped_specs(capsys, command):
    argv = [str(REPO_ROOT / a) if a.startswith("specs/") else a for a in command.split()]
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
