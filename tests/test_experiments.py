import json
import math
import subprocess
import sys

import pytest

from multable.energy import cs_product_lower_bound, energy_bruteforce, offdiag_tuples, product_set
from multable.errors import BudgetError, PreconditionError
from multable.experiments import (
    THETA,
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


def test_theta_constants():
    assert abs(THETA.theta - 0.0430) < 5e-4
    other_form = 1.0 - (1.0 + math.log(math.log(2))) / math.log(2)
    assert abs(THETA.two_theta - other_form) < 1e-12
    assert THETA.two_log2_minus_1 == pytest.approx(2 * math.log(2) - 1, abs=1e-15)


def test_table_counts():
    assert table_count(1) == 1
    assert table_count(4) == 9
    assert table_count(10) == 42
    r = list(range(1, 13))
    assert table_count(12) == len(product_set(r, r, "merge"))


def test_table_oracle_enumeration():
    for N in (4, 10, 25):
        want = len({a * b for a in range(1, N + 1) for b in range(1, N + 1)})
        assert table_count(N) == want


def test_table_bounds():
    with pytest.raises(PreconditionError):
        table_count(1 << 17)
    with pytest.raises(BudgetError):
        table_count(1 << 15)  # the product bitmap stops at 2^29 entries


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
        assert row["product_count"] == len(product_set(A, A, "merge"))
        assert row["cs_lower_bound"] == cs_product_lower_bound(A, A)
        if a > 0:
            assert row["offdiag_tuples"] == offdiag_tuples(A)


def test_cmd_ap_product_strips_zero():
    row = cmd_ap_product(-2, 2, 3).results[0]  # {-2, 0, 2}
    assert row["zeros_removed"] == 1
    assert row["energy"] == 8  # E({-2, 2})


def test_cmd_energy():
    assert cmd_energy([1, 2, 3]).results[0]["energy"] == 15


def test_cmd_reduce_deterministic():
    a = cmd_reduce(1, 3, 500, delta="1/2", seed=11)
    b = cmd_reduce(1, 3, 500, delta="1/2", seed=11)
    assert a.results == b.results
    c = cmd_reduce(1, 3, 500, delta="1/2", seed=12)
    assert a.results != c.results or a.params == c.params


def test_cmd_nk_reports_asymptotic_k():
    rep = cmd_nk(0.0, 1.0, 2, a=101, d=1, L=100, witness=True)
    row = rep.results[0]
    assert row["asymptotic_k"] < 0  # negative at desk scale
    assert row["witness_count"] <= row["count"]


def test_cmd_smirnov_and_mertens():
    row = cmd_smirnov(c=[0.3]).results[0]
    assert row["exact"] == pytest.approx(0.7, abs=1e-12)
    row = cmd_smirnov(n=100, u=5.0, w=5.0, samples=10**4, seed=3).results[0]
    assert abs(row["mc_estimate"] - row["exact"]) <= 5 * row["mc_stderr"]
    assert row["deviation_stat"] < 2.0
    row = cmd_mertens(10**4).results[0]
    assert 0.20 <= row["difference"] <= 0.30


def test_cmd_shiu():
    row = cmd_shiu(11, 10, 1, 0, 2.0).results[0]
    assert row["exact"] == 23.0
    assert row["ratio"] > 0


def test_csv_output():
    text = cmd_table(4).to_csv()
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:2] == ["N", "count"]
    assert lines[1].startswith("4,9,")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "multable.cli", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_cli_json_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    r = _run_cli("table", "10", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["count"] == 42


def test_cli_exit_codes():
    assert _run_cli("mertens", "1").returncode == 2
    assert _run_cli("table", "40000").returncode == 3  # bitset budget
    assert _run_cli("table", "90000").returncode == 2  # beyond the N cap
    assert _run_cli("energy", "--set", "1,2,3").returncode == 0


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
