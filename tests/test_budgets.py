import re
from pathlib import Path

import pytest

from multable.energy import energy, energy_bruteforce, offdiag_tuples, product_set
from multable.errors import BUDGETS, BudgetError
from multable.experiments import cmd_reduce, table_count
from multable.primestats import NkQuery, ShiuQuery, nk_last_prime_extension, shiu_mean
from multable.progressions import ArithmeticProgression as AP
from multable.sieve import mertens_sum
from multable.smirnov import SmirnovBoundary, noncrossing_probability_mc, q_n

README = Path(__file__).resolve().parents[1] / "README.md"

# per budget, its cheapest refusing call and the use that call makes of it
CHEAPEST = {
    "kernel_pairs": (lambda: energy([1, 2, 3]), 9),
    "product_set_pairs": (lambda: product_set([1, 2], [1, 2]), 4),
    "object_pairs": (lambda: energy([2**40 + 1, 2**40 + 3]), 4),  # products past 2^62
    "bruteforce_pairs": (lambda: energy_bruteforce([1, 2]), 4),
    "offdiag_pairs": (lambda: offdiag_tuples([1, 2, 3, 6]), 8),
    "sieve": (lambda: mertens_sum(100), 100),
    "exact_n": (lambda: q_n(1, 1, 2), 2),
    "mc_uniforms": (lambda: noncrossing_probability_mc(SmirnovBoundary.from_values([0.5]), 10**4, 0), 10**4),
    "table_n": (lambda: table_count(4), 4),
    "reduce_L": (lambda: cmd_reduce(1, 1, 10), 10),
    "reciprocal_x": (lambda: shiu_mean(ShiuQuery(4, 3, 1, 0, 1.0)), 4),
    # the prefixes 2, 3, 5 and 7 below sqrt(101)
    "dfs_nodes": (lambda: nk_last_prime_extension(NkQuery(0.0, 1.0, 2, ap=AP(101, 1, 10)), 10), 4),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_every_budget_refuses(monkeypatch, name):
    # no budget is dead: its cheapest call fits it at exactly its use and is
    # refused one below, and the call runs again once the budget is restored
    assert set(CHEAPEST) == set(BUDGETS)
    call, used = CHEAPEST[name]
    monkeypatch.setitem(BUDGETS, name, used)
    call()
    monkeypatch.setitem(BUDGETS, name, used - 1)
    with pytest.raises(BudgetError):
        call()
    monkeypatch.undo()
    call()


def test_readme_budget_table():
    # every budget appears in the README's table with its value, as 2^k, 10^k or digits
    rows = re.findall(r"^\s*\| `(\w+)` \| (\d+)(?:\^(\d+))? \|", README.read_text(), re.M)
    assert {name: int(base) ** int(exp or 1) for name, base, exp in rows} == BUDGETS
