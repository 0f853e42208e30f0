import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multable.energy import energy_bruteforce, product_set
import multable.experiments as ex
from multable import cli
from multable.errors import BUDGETS, BudgetError, InternalCheckError, PreconditionError
from multable.progressions import ArithmeticProgression as AP
from multable.progressions import int_array
from multable.experiments import (
    THETA,
    TWO_LOG2_MINUS_1,
    TWO_THETA,
    cmd_ap_product,
    cmd_energy,
    cmd_mertens,
    cmd_nk,
    cmd_reduce,
    cmd_shiu,
    cmd_smirnov,
    cmd_table,
    normalized_ratio,
    table_count,
)
from test_energy import _offdiag_counter, _product_merge
from test_sieve import factorize

# multable.energy is also the name of the function the package re-exports
en = importlib.import_module("multable.energy")

# a child interpreter imports multable from this checkout, as pytest does
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_theta_constants():
    assert abs(THETA - 0.0430) < 5e-4
    other_form = 1.0 - (1.0 + math.log(math.log(2))) / math.log(2)
    assert abs(TWO_THETA - other_form) < 1e-12
    assert TWO_LOG2_MINUS_1 == pytest.approx(2 * math.log(2) - 1, abs=1e-15)


def test_table_counts():
    assert table_count(1) == 1
    assert table_count(4) == 9
    assert table_count(10) == 42
    r = list(range(1, 13))
    assert table_count(12) == len(_product_merge(r, r))
    # OEIS A027424
    assert [table_count(N) for N in range(1, 11)] == [1, 3, 6, 9, 14, 18, 25, 30, 36, 42]
    assert table_count(1 << 14) == 59415059


def _sorted_count(N):
    r = list(range(1, N + 1))
    return len(product_set(r, r))


# The reference counts the sorted products, sharing no code with the windowed
# counter.  That counter visits about N^3 / (6W) rows, so the narrowest windows
# run on the smaller tables; every window but the default makes rows straddle
# window edges, and the default does from N = 1449 on.
@pytest.mark.parametrize("window, sizes", [
    (1, range(1, 41)),
    (7, range(1, 61)),
    (64, range(1, 201)),
    (1000, [*range(1, 201), 257, 509, 1000, 1024]),
    (ex.TABLE_WINDOW, [1448, 1449, 2047, 3001, 4096]),
])
def test_windowed_table_matches_bitmap(monkeypatch, window, sizes):
    monkeypatch.setattr(ex, "TABLE_WINDOW", window)
    for N in sizes:
        assert table_count(N) == _sorted_count(N), (window, N)


def test_table_oracle_enumeration():
    for N in (4, 10, 25):
        want = len({a * b for a in range(1, N + 1) for b in range(1, N + 1)})
        assert table_count(N) == want


def test_table_bounds():
    with pytest.raises(PreconditionError):
        table_count(0)
    with pytest.raises(BudgetError):
        table_count(1 << 17)
    with pytest.raises(BudgetError):
        r = list(range(1, (1 << 15) + 1))
        product_set(r, r)  # 2^30 pairs exceed the product_set_pairs budget 2^26


def test_normalized_ratio_small_N_undefined():
    assert normalized_ratio(2, 3) is None


def test_cmd_table_report():
    rep = cmd_table(10)
    assert rep.results[0]["count"] == 42
    payload = json.loads(rep.to_json())
    assert set(payload) == {"command", "params", "results", "provenance"}
    assert set(payload["provenance"]) == {"seed", "threads", "version", "wall_time_ms"}


def test_cmd_ap_product_examples():
    assert cmd_ap_product(1, 1, 4).results[0]["product_count"] == 9
    row = cmd_ap_product(1, 200, 100).results[0]
    assert row["product_count"] == 100 * 101 // 2
    row = cmd_ap_product(5, 6, 5).results[0]
    assert row["product_count"] == 15
    assert row["energy"] <= row["energy_upper_bound"]


def test_cmd_ap_product_matches_library():
    for a, d, L in [(5, 6, 5), (7, 1000, 64), (720720, 60, 40), (-9, 4, 7)]:
        A = [x for x in range(a, a + d * L, d) if x]
        row = cmd_ap_product(a, d, L).results[0]
        assert row["energy"] == energy_bruteforce(A)
        assert row["product_count"] == len(_product_merge(A, A))
        assert row["cs_lower_bound"] == len(A) ** 4 / energy_bruteforce(A)
        if a > 0:
            assert row["offdiag_tuples"] == _offdiag_counter(A)
    # an all-negative progression has no column and no square root to take
    row = cmd_ap_product(-10, 1, 5).results[0]
    assert row["offdiag_tuples"] is None
    assert row["energy"] == energy_bruteforce([-10, -9, -8, -7, -6])


def test_cmd_ap_product_offdiag_past_factor_budget(monkeypatch):
    # offdiag_tuples factors every element, so elements past about 2^48 get
    # no column, and the rest of the row is still computed
    row = cmd_ap_product(2**62, 1, 3).results[0]
    assert row["offdiag_tuples"] is None
    assert row["energy"] == energy_bruteforce([2**62, 2**62 + 1, 2**62 + 2])
    # the column's own budget still refuses the command
    monkeypatch.setitem(BUDGETS, "offdiag_pairs", 0)
    with pytest.raises(BudgetError):
        cmd_ap_product(1, 1, 12)


def test_quotient_check_guards_product_count(monkeypatch):
    # product_count has no second route: a product lost from one window of
    # the pair kernel must fail the quotient side's exact check of the sum
    # of r(x)^2.  40 elements make 820 products i <= j, in windows of 200.
    monkeypatch.setattr(en, "WINDOW_PAIRS", 200)
    pair_values = en._pair_values
    calls = []

    def drop_one(parts, op):
        # the product side runs first; its second window loses an entry
        calls.append(op)
        out = pair_values(parts, op)
        return np.delete(out, 1) if len(calls) == 2 and op is np.multiply else out

    monkeypatch.setattr(en, "_pair_values", drop_one)
    for run in (lambda: en.energy(list(range(7, 127, 3))), lambda: cmd_ap_product(7, 3, 40)):
        calls.clear()
        with pytest.raises(InternalCheckError):
            run()
        assert calls[:2] == [np.multiply, np.multiply]


def test_energy_checks_cauchy_schwarz(monkeypatch):
    # |A|^2|B|^2 <= E |A.B| in integers on every energy call: a product
    # count of 1 against E([1, 2, 3]) = 15 fails it, in energy and ap-product
    product_energy = en._product_energy

    def one_product(a, b):
        e, _, kernel = product_energy(a, b)
        return e, 1, kernel

    monkeypatch.setattr(en, "_product_energy", one_product)
    for run in (lambda: en.energy([1, 2, 3]), lambda: cmd_ap_product(1, 1, 3)):
        with pytest.raises(InternalCheckError, match="Cauchy-Schwarz"):
            run()


def test_ap_product_checks_energy_upper_bound(monkeypatch, capsys):
    # an energy forged past AP(1, 1, 3)'s energy_upper_bound, about 245, fails
    # the check on every call, in-process and as exit 4 from the CLI
    real = ex.energy
    monkeypatch.setattr(ex, "energy", lambda A: dataclasses.replace(real(A), energy=10**6))
    with pytest.raises(InternalCheckError, match="energy_upper_bound"):
        cmd_ap_product(1, 1, 3)
    assert cli.main(["ap-product", "1", "1", "3"]) == 4
    assert "exceeds energy_upper_bound" in capsys.readouterr().err


def test_pair_budget_counts_nonzero_elements(monkeypatch):
    # a budget of 64 pairs: 8 nonzero elements fit it, 9 do not
    monkeypatch.setitem(BUDGETS, "kernel_pairs", 64)
    row = cmd_ap_product(-4, 1, 9).results[0]  # {-4, ..., 4}
    assert row["zeros_removed"] == 1 and row["energy"] == energy_bruteforce([-4, -3, -2, -1, 1, 2, 3, 4])
    for call in (lambda: cmd_ap_product(1, 1, 9), lambda: cmd_energy(range(1, 10))):
        with pytest.raises(BudgetError):
            call()


def test_cmd_ap_product_strips_zero():
    row = cmd_ap_product(-2, 2, 3).results[0]  # {-2, 0, 2}
    assert row["zeros_removed"] == 1
    assert row["energy"] == 8  # E({-2, 2})


def test_cmd_energy():
    assert cmd_energy([1, 2, 3]).results[0]["energy"] == 15


def test_kernel_route_in_provenance(monkeypatch):
    # the pair kernel's dtypes and window counts go to provenance only
    rep = cmd_energy([1, 2, 3])
    assert set(rep.provenance) == {"seed", "threads", "version", "wall_time_ms", "kernel"}
    assert rep.provenance["kernel"] == {
        "product_route": "int64", "product_windows": 1, "key_route": "float64", "key_windows": 1,
    }
    row = rep.results[0]
    monkeypatch.setattr(en, "WINDOW_PAIRS", 2)
    rep = cmd_energy([1, 2, 3])
    assert rep.results[0] == row
    assert rep.provenance["kernel"]["product_windows"] > 1
    assert rep.provenance["kernel"]["key_windows"] > 1
    monkeypatch.undo()
    big = [2**40 + 1, 2**40 + 3]  # products past 2^62, keys past 2^31
    assert cmd_energy(big).provenance["kernel"] == {
        "product_route": "object", "product_windows": 1, "key_route": "object", "key_windows": 1,
    }
    # elements past 2^26: int64 products, quotient keys packed in int64
    kernel = cmd_ap_product(2**26 + 3, 1000, 40).provenance["kernel"]
    assert kernel == {"product_route": "int64", "product_windows": 1,
                      "key_route": "int64", "key_windows": 1}


def test_report_rejects_non_finite():
    # a NaN that slipped past a check stops the run instead of printing invalid JSON
    for params, rows in (({}, [{"v": float("nan")}]), ({"c": [0.5, float("inf")]}, [{"v": 1.0}])):
        with pytest.raises(InternalCheckError):
            ex.ExperimentReport("forged", params, rows)
    rep = ex.ExperimentReport("forged", {}, [{"v": 1.0}])
    rep.results[0]["v"] = float("nan")  # forged after the check
    with pytest.raises(ValueError):
        rep.to_json()


def test_cmd_reduce_deterministic():
    a = cmd_reduce(1, 3, 500, delta="1/2", seed=11)
    b = cmd_reduce(1, 3, 500, delta="1/2", seed=11)
    assert a.results == b.results
    c = cmd_reduce(1, 3, 500, delta="1/2", seed=12)
    assert a.results != c.results or a.params == c.params


def test_cmd_reduce_rejects_negative_seed():
    # the subset draw takes the seed; a library caller gets the CLI's refusal
    with pytest.raises(PreconditionError):
        cmd_reduce(1, 1, 100, delta="1/2", seed=-1)


def test_cmd_reduce_rejects_delta_outside_unit_interval():
    for delta in ("2", "0", "-1/2", "abc", "3/0"):
        with pytest.raises(PreconditionError):
            cmd_reduce(1, 1, 100, delta=delta, seed=0)


def test_cmd_reduce_skips_omega_trim_past_sieve_budget():
    # the hull ends past 2^48, where the sieve refuses its primes
    rep = cmd_reduce(2**49 + 1, 2, 64, delta="1/2", seed=0)
    assert rep.results[-1] == {"step": "omega-trim", "note": "skipped (hull outside sieve budget)"}
    trimmed = cmd_reduce(1, 3, 500, delta="1/2", seed=11).results[-1]
    assert trimmed["step"] == "omega-trim" and "retained_fraction" in trimmed


def test_cmd_reduce_omega_trim_sieves_elements_not_hull():
    # the hull [1, 4999 * 3999] is past the sieve budget; the 4000 elements are not
    a, d, L, seed = 1, 4999, 4000, 3
    row = cmd_reduce(a, d, L, delta="1/2", seed=seed).results[-1]
    elems = list(range(a, a + d * L, d))
    A = [elems[i] for i in np.random.default_rng(seed).choice(L, size=L // 2, replace=False)]
    kept = sum(1 for n in A if len(factorize(n)) <= row["omega_cutoff"])
    assert row["note"] == f"{kept}/{L // 2} kept at omega <= loglog + loglog^(2/3)"


def test_omega_trim_row_at_the_sieve_edge(monkeypatch):
    # the row answers exactly where the progression's positive part fits the
    # sieve budget, both in length and in isqrt of its last element; A's own
    # hull, however short, does not decide
    monkeypatch.setitem(BUDGETS, "sieve", 100)
    skipped = {"step": "omega-trim", "note": "skipped (hull outside sieve budget)"}

    def row(ap, count=None):
        return ex._omega_trim_row(int_array(ap.elements()[:count]), ap)

    for ap in (AP(10141, 1, 60), AP(-5, 1, 106), AP(1, 3, 100)):  # isqrt(10200) = 100; 100 positives
        got = row(ap)
        pos = [n for n in ap.elements() if n > 0]
        cut = math.log(math.log(ap.last + 1)) + math.log(math.log(ap.last + 1)) ** (2 / 3)
        kept = sum(1 for n in pos if len(factorize(n)) <= cut)
        assert got["omega_cutoff"] == cut and got["retained_fraction"] == kept / len(pos), ap
    for ap in (AP(10142, 1, 60), AP(-5, 1, 107)):  # isqrt(10201) = 101; 101 positives
        assert row(ap) == skipped, ap
        # a sparse draw whose own hull fits the budget skips with its progression
        assert row(ap, 30) == skipped, ap


def test_cmd_nk_reports_asymptotic_k():
    rep = cmd_nk(0.0, 1.0, 2, a=101, d=1, L=100, witness=True)
    row = rep.results[0]
    assert row["asymptotic_k"] < 0  # negative at desk scale
    assert row["witness_count"] <= row["count"]


def test_cmd_nk_long_nonpositive_prefix_memory_bounded():
    # a 10^12-element non-positive prefix is never built: the query costs
    # what its 99 positive elements cost
    tracemalloc.start()
    try:
        row = cmd_nk(0.0, 0.0, 1, a=-10**12, d=1, L=10**12 + 100).results[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = cmd_nk(0.0, 0.0, 1, a=1, d=1, L=99).results[0]
    assert (row["count"], row["members_preview"]) == (ref["count"], ref["members_preview"])
    assert peak < 1 << 20, f"traced peak {peak} bytes"


def test_cmd_smirnov_and_mertens():
    row = cmd_smirnov(c=[0.3]).results[0]
    assert row["exact"] == pytest.approx(0.7, abs=1e-12)
    row = cmd_smirnov(n=100, u=5.0, w=5.0, samples=10**4, seed=3).results[0]
    assert abs(row["mc_estimate"] - row["exact"]) <= 5 * row["mc_stderr"]
    assert row["deviation_stat"] < 2.0
    row = cmd_mertens(10**4).results[0]
    assert 0.20 <= row["difference"] <= 0.30


def test_cmd_smirnov_takes_integers_only():
    # n = 10.5 used to answer for n = 11, and samples = 1e5 raised a bare TypeError
    for kw in ({"n": 10.5, "u": 2, "w": 2}, {"n": 10, "u": 2, "w": 2, "samples": 1e5},
               {"c": [0.3], "samples": 10**4, "seed": 1.0}):
        with pytest.raises(PreconditionError):
            cmd_smirnov(**kw)
    assert (cmd_smirnov(n=np.int64(10), u=2, w=2).results
            == cmd_smirnov(n=10, u=2, w=2).results)


def test_cmd_smirnov_refuses_n_with_c():
    # n beside c used to be dropped, and the answer was for n = len(c)
    for kw in ({"n": 50, "c": [0.1, 0.2]}, {"n": 50, "c": [0.1, 0.2], "samples": 10**4}):
        with pytest.raises(PreconditionError, match="not both"):
            cmd_smirnov(**kw)
    assert cli.main(["smirnov", "-n", "50", "--c", "0.1,0.2"]) == 2
    # u and w beside c stay allowed: the line approximation uses them
    assert cmd_smirnov(c=[0.1, 0.2], u=2.0, w=3.0).results[0]["n"] == 2


def test_cmd_smirnov_refuses_a_string_n():
    # the exact_n budget compared "10" > 400 and raised a bare TypeError
    for n in ("10", "400", None):
        with pytest.raises(PreconditionError):
            cmd_smirnov(n=n, u=2, w=2)


def test_cmd_shiu():
    row = cmd_shiu(11, 10, 1, 0, 2.0).results[0]
    assert row["exact"] == 23.0
    assert row["ratio"] > 0


# each command with valid arguments, and its integer and float arguments
COMMAND_CASES = {
    "table": (cmd_table, {"N": 10}, ("N",), ()),
    "ap-product": (cmd_ap_product, {"a": 1, "d": 2, "L": 5}, ("a", "d", "L"), ()),
    "energy": (cmd_energy, {"values": [1, 2, 3]}, (), ()),
    "reduce": (cmd_reduce, {"a": 1, "d": 3, "L": 64, "delta": "1/2", "seed": 5}, ("a", "d", "L"), ()),
    "nk": (cmd_nk, {"alpha": 0.0, "beta": 1.0, "k": 2, "a": 101, "d": 1, "L": 100, "witness": True},
           ("k", "a", "d", "L"), ("alpha", "beta")),
    "smirnov": (cmd_smirnov, {"n": 20, "u": 2.0, "w": 3.0, "samples": 10**4, "seed": 3},
                ("n", "samples"), ("u", "w")),
    "mertens": (cmd_mertens, {"x": 1000}, ("x",), ()),
    "shiu": (cmd_shiu, {"x": 11, "y": 10, "k": 1, "a": 0, "z": 2.0}, ("x", "y", "k", "a"), ("z",)),
}


def test_every_result_field_has_a_stated_route():
    # README's table gives each result key its second route, or why it needs
    # none; one run of every command, and of reduce's other outcome, must
    # show exactly the keys it lists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Result fields", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([\w-]+)` \| `(\w+)` \|", section, re.M))
    runs = [(name, fn(**kw)) for name, (fn, kw, _, _) in COMMAND_CASES.items()]
    runs.append(("reduce", cmd_reduce(3, 1, 100)))  # Reduced, where the case above is DirectBound
    seen = {(name, key) for name, rep in runs for row in rep.results for key in row}
    assert sorted(seen - listed) == []
    assert sorted(listed - seen) == []


# README's "derived from" fields, each recomputed from its row and params
DERIVED = {
    ("table", "normalized_ratio"): lambda r, p: (
        r["count"] * math.log(r["N"]) ** p["two_theta"] * math.log(math.log(r["N"])) ** 1.5 / (r["N"] * r["N"])),
    ("ap-product", "cs_lower_bound"): lambda r, p: (r["L"] - r["zeros_removed"]) ** 4 / r["energy"],
    ("ap-product", "normalized_ratio"): lambda r, p: (
        r["product_count"] * math.log(r["L"]) ** p["two_theta"] / (r["L"] * r["L"])),
    ("energy", "diag_bound"): lambda r, p: 2 * r["size"] ** 2,
    ("smirnov", "deviation_stat"): lambda r, p: (
        abs(r["exact"] - r["line_approx"]) * r["n"] / (p["u"] + p["w"])),
    ("smirnov", "mc_stderr"): lambda r, p: (
        math.sqrt(r["mc_estimate"] * (1.0 - r["mc_estimate"]) / p["samples"])),
    ("mertens", "difference"): lambda r, p: r["sum"] - r["loglog_x"],
    ("shiu", "ratio"): lambda r, p: r["exact"] / r["bound"],
}


def test_derived_fields_follow_their_formulas():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Result fields", 1)[1].split("\n## ", 1)[0]
    derived = set(re.findall(r"^\| `([\w-]+)` \| `(\w+)` \| derived from", section, re.M))
    assert sorted(derived) == sorted(DERIVED)
    checked = set()
    for name, (fn, kw, _, _) in COMMAND_CASES.items():
        rep = fn(**kw)
        for (command, key), formula in DERIVED.items():
            if command == name:
                for row in rep.results:
                    assert row[key] == formula(row, rep.params), (command, key)
                    checked.add((command, key))
    assert checked == DERIVED.keys()


def test_cli_internal_check_exits_4(monkeypatch, capsys):
    def broken(N):
        raise InternalCheckError("forced")

    monkeypatch.setattr(ex, "table_count", broken)
    assert cli.main(["table", "10"]) == 4
    assert "internal assertion failure: forced" in capsys.readouterr().err


@pytest.mark.parametrize("name", COMMAND_CASES)
def test_commands_refuse_what_the_cli_refuses(name):
    # an in-process call is held to the CLI's types: an integer argument or
    # seed given as a str or a float, a float argument given as a str, and a
    # negative seed are preconditions, not TypeErrors or reports
    fn, kw, ints, floats = COMMAND_CASES[name]
    kw = {"seed": 0, "threads": 0, **kw}
    bad = [{k: f(kw[k])} for k in (*ints, "seed", "threads") for f in (str, float)]
    bad += [{k: str(kw[k])} for k in floats] + [{"seed": -1}]
    for change in bad:
        with pytest.raises(PreconditionError):
            fn(**{**kw, **change})
    # numpy integers are read as ints, so the report is the same
    wide = fn(**{**kw, **{k: np.int64(kw[k]) for k in (*ints, "seed", "threads")}})
    payloads = [json.loads(rep.to_json()) for rep in (fn(**kw), wide)]
    for payload in payloads:
        del payload["provenance"]["wall_time_ms"]
    assert payloads[0] == payloads[1]
    assert fn(**kw).command == name


def test_csv_output():
    text = cmd_table(4).to_csv()
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:2] == ["N", "count"]
    assert lines[1].startswith("4,9,")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "multable.cli", *args],
        capture_output=True, text=True, timeout=120, env=SRC_ENV,
    )


def test_cli_json_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    r = _run_cli("table", "10", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["count"] == 42


def test_cli_runs_as_package():
    r = subprocess.run(
        [sys.executable, "-m", "multable", "energy", "--set", "1,2,3"],
        capture_output=True, text=True, timeout=120, env=SRC_ENV,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["results"][0]["energy"] == 15


def test_cli_exit_codes():
    assert _run_cli("mertens", "1").returncode == 2
    assert _run_cli("smirnov", "-n", "401", "-u", "5", "-w", "5").returncode == 3  # exact_n
    assert _run_cli("table", "90000").returncode == 3  # beyond the N cap
    assert cli.main(["table", "0"]) == 2
    # 32769^2 pairs exceed the kernel_pairs budget 2^30
    assert _run_cli("ap-product", "1", "1", "32769").returncode == 3
    # in-process: one argument of 190 kB is past the kernel's limit for argv strings
    assert cli.main(["energy", "--set", ",".join(map(str, range(1, 32770)))]) == 3
    assert _run_cli("energy", "--set", "1,2,3").returncode == 0
    assert cli.main(["mertens", "10000000000000"]) == 3  # primes past the sieve budget
    assert _run_cli("shiu", "100", "50", "-k", "0", "-a", "1").returncode == 2  # no modulus
    # malformed values: the parser exits 2
    for args in (
        ["energy", "--set", "1,x"],
        ["smirnov", "--c", "0.1,x"],
        ["smirnov", "--c", "0.1,"],
    ):
        with pytest.raises(SystemExit) as exit_:
            cli.main(args)
        assert exit_.value.code == 2, args
    # a bad --delta is refused by cmd_reduce: a precondition violation, exit 2
    for delta in ("abc", "3/0", "2"):
        assert cli.main(["reduce", "1", "1", "100", "--delta", delta]) == 2, delta
    # non-finite boundary inputs are preconditions, not NaN rows
    assert cli.main(["smirnov", "-n", "10", "-u", "nan", "-w", "1"]) == 2
    assert cli.main(["smirnov", "-n", "10", "-u", "1", "-w", "inf"]) == 2
    assert cli.main(["smirnov", "--c", "0.1,nan,0.5"]) == 2
    # u and w must be finite and positive in both forms
    assert cli.main(["smirnov", "--c", "0.3", "-u", "-1", "-w", "1"]) == 2
    assert cli.main(["smirnov", "--c", "0.3", "-u", "nan", "-w", "1"]) == 2
    assert cli.main(["smirnov", "-n", "10", "-u", "-2", "-w", "1"]) == 2
    # a lone u or w is refused, never carried into the report
    assert cli.main(["smirnov", "--c", "0.3", "-u", "nan"]) == 2
    assert cli.main(["smirnov", "--c", "0.3", "-w", "2"]) == 2
    # sizes are budgeted before the boundary or the Monte Carlo buffer exists
    assert cli.main(["smirnov", "-n", "10000000", "-u", "1", "-w", "1"]) == 3
    assert cli.main(["smirnov", "-n", "1099511627776", "-u", "1", "-w", "1"]) == 3
    assert cli.main(["smirnov", "--c", "0.5", "--samples", "9223372036854775807"]) == 3


# edge values of the CLI contract: int64 bounds, non-finite floats, empty
# lists and fractions at the edges of (0, 1]
EDGE_INTS = ["0", "1", "-1", str(2**31), str(2**62), str(2**63 - 1), str(2**63)]
EDGE_FLOATS = EDGE_INTS + ["nan", "inf", "-inf", "0.5", "5e-324"]
EDGE_FRACTIONS = ["1", "0", "-1/2", "3/2", f"1/{2**63}", f"{2**63 - 1}/{2**63}", "x", ""]
EDGE_LISTS = ["", ",", "0", "1", "0.5", "0,1", "-1,1", "nan", "1,inf", f"{2**62},{2**63}"]
# Monte Carlo sample counts that finish in milliseconds or exceed the budget
EDGE_SAMPLES = ["0", "-1", "10000", str(2**62), str(2**63 - 1)]


def _cli_args():
    i, f, frac, lst = (st.sampled_from(v) for v in (EDGE_INTS, EDGE_FLOATS, EDGE_FRACTIONS, EDGE_LISTS))

    def opt(flag, values):  # an option given or left out
        return st.one_of(st.just([]), values.map(lambda v: [flag, v]))

    def cmd(name, *parts):
        return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in (p if isinstance(p, list) else [p])])

    return st.one_of(
        cmd("table", i),
        cmd("ap-product", i, i, i),
        cmd("energy", opt("--set", lst)),
        cmd("reduce", i, i, i, opt("--delta", frac)),
        cmd("nk", i, i, i, opt("--alpha", f), opt("--beta", f), opt("-k", i),
            st.sampled_from([[], ["--witness"]])),
        cmd("smirnov", opt("-n", i), opt("--c", lst), opt("-u", f), opt("-w", f),
            opt("--samples", st.sampled_from(EDGE_SAMPLES))),
        cmd("mertens", i),
        cmd("shiu", i, i, opt("-k", i), opt("-a", i), opt("-z", f)),
    )


def _no_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@settings(max_examples=120)
@given(_cli_args())
@example(["smirnov", "--c", "0", "-u", "5e-324", "-w", "5e-324"])  # the statistic overflows
@example(["smirnov", "-n", str(2**63 - 1), "-u", "1", "-w", "1"])
@example(["smirnov", "--c", "0.5", "--samples", str(2**63 - 1)])
@example(["nk", "2", "1", "1", "--alpha", "0", "--beta", "0", "-k", str(2**63 - 1), "--witness"])
def test_cli_contract_on_edge_values(argv):
    # every input exits 0, 2 or 3, and a report is strict JSON
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refuses a malformed value
            code = e.code
    assert code in (0, 2, 3), argv
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)


def test_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is a test-only oracle
    code = ("import sys, multable, multable.experiments, multable.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120, env=SRC_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_nk_sieves_elements_not_hull(capsys):
    # the hull holds 99,999,001 numbers, six times the sieve budget; the
    # progression has 10^5 elements
    assert cli.main(["nk", "1001", "1000", "100000", "--alpha", "0", "--beta", "1", "-k", "2"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert row["members_preview"] == [
        n for n in range(1001, 1001 + 1000 * 50, 1000)
        if sorted(factorize(n).values()) == [1, 1]
    ][:20]


def test_cli_closed_pipe_exits_zero_quietly():
    # the reader closes its end before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "multable", "energy", "--set", "1,2,3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=SRC_ENV,
        )
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (0, "")


def test_cli_nk_witness_huge_k_returns(capsys):
    # k - 1 distinct primes multiply past the prefix limit, so the walk builds nothing
    assert cli.main(["nk", "2", "1", "1", "--alpha", "0", "--beta", "0",
                     "-k", "9223372036854775807", "--witness"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["witness_count"] == 0


def test_cli_rejects_negative_seed(capsys):
    assert cli.main(["smirnov", "-n", "50", "-u", "5", "-w", "5",
                     "--samples", "10000", "--seed", "-1"]) == 2
    assert cli.main(["reduce", "1", "1", "100", "--delta", "1/2", "--seed", "-1"]) == 2
    assert cli.main(["reduce", "1", "1", "100", "--seed", "-1"]) == 2
    assert cli.main(["--seed", "-1", "table", "10"]) == 2


S = argparse.SUPPRESS
# each subcommand's help flag and suppressed copies of the global flags
SUB_GLOBALS = [
    (("-h", "--help"), "help", S, False, 0, None),
    (("--seed",), "seed", S, False, None, "int"),
    (("--threads",), "threads", S, False, None, "int"),
    (("--format",), "format", S, False, None, None),
    (("--out",), "out", S, False, None, None),
]
AP_POSITIONALS = [((), v, None, True, None, "int") for v in ("a", "d", "L")]
# every parser in --help order, each action as (option strings, dest,
# default, required, nargs, type name)
CLI_SURFACE = [
    ("multable", [
        (("-h", "--help"), "help", S, False, 0, None),
        (("--seed",), "seed", 0, False, None, "int"),
        (("--threads",), "threads", 0, False, None, "int"),
        (("--format",), "format", "json", False, None, None),
        (("--out",), "out", None, False, None, None),
        ((), "cmd", None, True, "A...", None),
    ]),
    ("multable table", SUB_GLOBALS + [((), "N", None, True, None, "int")]),
    ("multable ap-product", SUB_GLOBALS + AP_POSITIONALS),
    ("multable energy", SUB_GLOBALS + [(("--set",), "values", None, True, None, "_int_list")]),
    ("multable reduce", SUB_GLOBALS + AP_POSITIONALS + [(("--delta",), "delta", "1", False, None, None)]),
    ("multable nk", SUB_GLOBALS + AP_POSITIONALS + [
        (("--alpha",), "alpha", None, True, None, "float"),
        (("--beta",), "beta", None, True, None, "float"),
        (("-k",), "k", None, True, None, "int"),
        (("--witness",), "witness", False, False, 0, None),
    ]),
    ("multable smirnov", SUB_GLOBALS + [
        (("-n",), "n", None, False, None, "int"),
        (("--c",), "c", None, False, None, "_float_list"),
        (("-u",), "u", None, False, None, "float"),
        (("-w",), "w", None, False, None, "float"),
        (("--samples",), "samples", 0, False, None, "int"),
    ]),
    ("multable mertens", SUB_GLOBALS + [((), "x", None, True, None, "int")]),
    ("multable shiu", SUB_GLOBALS + [
        ((), "x", None, True, None, "int"),
        ((), "y", None, True, None, "int"),
        (("-k",), "k", 1, False, None, "int"),
        (("-a",), "a", 0, False, None, "int"),
        (("-z",), "z", 1.0, False, None, "float"),
    ]),
]


def test_cli_surface_is_pinned():
    # no flag, default, type or subcommand changes without this list changing
    root = cli.build_parser()
    sub = next(a for a in root._actions if isinstance(a, argparse._SubParsersAction))
    surface = [
        (p.prog, [(tuple(a.option_strings), a.dest, a.default, a.required, a.nargs,
                   getattr(a.type, "__name__", None)) for a in p._actions])
        for p in (root, *sub.choices.values())
    ]
    assert surface == CLI_SURFACE


def test_cli_reduce_budget(monkeypatch, capsys):
    # refused before the elements are built: building them would exit 4
    def no_elements(self):
        raise AssertionError("elements built past the budget")
    monkeypatch.setattr(ex.ArithmeticProgression, "elements", no_elements)
    assert cli.main(["reduce", "1", "1", str(BUDGETS["reduce_L"] + 1)]) == 3
    monkeypatch.undo()
    monkeypatch.setitem(BUDGETS, "reduce_L", 100)
    assert cli.main(["reduce", "1", "1", "100"]) == 0
    assert cli.main(["reduce", "1", "1", "101"]) == 3


def test_cli_csv_format():
    r = _run_cli("--format", "csv", "energy", "--set", "1,2,3")
    assert r.returncode == 0
    assert r.stdout.splitlines()[1].split(",")[2] == "15"


def test_cli_determinism_across_runs():
    a = _run_cli("reduce", "1", "3", "400", "--delta", "2/5", "--seed", "5")
    b = _run_cli("reduce", "1", "3", "400", "--delta", "2/5", "--seed", "5")
    ra = json.loads(a.stdout)["results"]
    rb = json.loads(b.stdout)["results"]
    assert ra == rb
