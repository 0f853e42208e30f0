import ast
import inspect
import re
from pathlib import Path

import pytest

import multable
from multable.energy import EnergyReport, energy
from multable.errors import BUDGETS, BudgetError
from multable.progressions import ArithmeticProgression
from multable.progressions import ArithmeticProgression as AP
from multable.reduction import ReductionTrace
from multable.sieve import FactorizationTable, fits, prime_flags, progression_table

# names retired with no caller outside the tests, each with its home
RETIRED = [
    ("multable.primestats", "reciprocal_sum_lower"),
    ("multable.sieve", "count_large_square_divisible"),
    ("multable.progressions", "dilate"),
    ("multable.progressions", "intset"),
    ("multable.reduction", "largest_square_class"),
    ("multable.reduction", "squarefree_reduce"),
    ("multable.reduction", "trimmed_set"),
    ("multable.energy", "cs_floor"),
    ("multable.energy", "cs_product_lower_bound"),
]


def test_star_import_binds_all():
    # a stale __all__ entry fails here, not as an AttributeError in a user's import
    names = {}
    exec("from multable import *", names)
    assert set(multable.__all__) <= names.keys()
    assert len(set(multable.__all__)) == len(multable.__all__)


@pytest.mark.parametrize("module, name", RETIRED)
def test_retired_names_stay_gone(module, name):
    assert not hasattr(__import__(module, fromlist=[name]), name)
    assert name not in multable.__all__


def test_retired_members_stay_gone():
    assert not hasattr(FactorizationTable, "omega")
    assert not hasattr(FactorizationTable, "largest_square_divisor")
    assert "with_histogram" not in inspect.signature(energy).parameters
    assert "histogram" not in EnergyReport.__dataclass_fields__
    assert "dilation_factor" not in ReductionTrace.__dataclass_fields__


def test_int64_rule_written_once():
    # the int64-or-exact bound lives in progressions.exact_dtype; a second
    # spelling of it (2^62, or the 31-bit key width) anywhere else fails here
    rule = re.compile(r"1\s*<<\s*62|2\s*\*\*\s*62|bits\s*[<>]=?\s*31")
    src = Path(multable.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name == "progressions.py":  # exact_dtype itself is the one place
            text = re.sub(r"\ndef exact_dtype\(.*?(?=\ndef )", "\n", text, flags=re.S)
        found += [f"{path.name}: {m.group()}" for m in rule.finditer(text)]
    assert not found


def test_same_set_rule_written_once():
    # energy's one same-set test is ``a is b``, which the intake _read_sets
    # sets up: np.array_equal nowhere else in energy.py, and no call in src/
    # hands a kernel helper None for a set
    src = Path(multable.__file__).parent
    text = (src / "energy.py").read_text()
    outside = re.sub(r"\ndef _read_sets\(.*?(?=\ndef )", "\n", text, flags=re.S)
    assert "array_equal" in text and "array_equal" not in outside
    none_arg = re.compile(r"_(?:quotient_dots|product_windows)\((?:[^()]|\([^()]*\))*\bNone\b")
    found = [f"{path.name}: {m.group()}" for path in sorted(src.glob("*.py"))
             for m in none_arg.finditer(path.read_text())]
    assert not found


def test_pair_writer_written_once():
    # one writer of pairs: offdiag_tuples packs its grid keys with the
    # kernel's _pair_values, and no module builds pairs from triu_indices
    src = Path(multable.__file__).parent
    assert not [path.name for path in sorted(src.glob("*.py")) if "triu_indices" in path.read_text()]
    offdiag = re.search(r"\ndef offdiag_tuples\(.*?(?=\ndef )", (src / "energy.py").read_text(), flags=re.S)
    assert "_pair_values(" in offdiag.group()


def test_element_builder_written_once():
    # ArithmeticProgression.array is the one builder of a progression's
    # elements: no np.arange with a step anywhere else in src/
    src = Path(multable.__file__).parent
    lines, start = inspect.getsourcelines(ArithmeticProgression.array)
    found = [(path.name, n.lineno) for path in sorted(src.glob("*.py")) for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "arange"
             and (len(n.args) == 3 or any(k.arg == "step" for k in n.keywords))]
    assert found and set(found) <= {("progressions.py", n) for n in range(start, start + len(lines))}


def test_sieve_budget_read_once():
    # the sieve's reach is sieve.fits: no module outside sieve.py reads or
    # checks the sieve budget itself (errors.py only defines it)
    rule = re.compile(r"""BUDGETS\[["']sieve["']\]|check_budget\(["']sieve["']""")
    src = Path(multable.__file__).parent
    found = [path.name for path in sorted(src.glob("*.py"))
             if path.name not in ("sieve.py", "errors.py") and rule.search(path.read_text())]
    assert not found
    assert "fits" not in multable.__all__


def test_fits_is_where_the_sieve_refuses(monkeypatch):
    # at a budget of 64: 64 elements fit and 65 do not, and a last element of
    # 4224 fits (isqrt 64) and 4225 = 65^2 does not, at d = 1, d > 1 and L = 1
    monkeypatch.setitem(BUDGETS, "sieve", 64)
    cases = {AP(1, 1, 64): True, AP(1, 1, 65): False, AP(5, 2, 65): False,
             AP(4161, 1, 64): True, AP(4162, 1, 64): False,
             AP(3, 67, 64): True, AP(4, 67, 64): False, AP(4224, 9, 1): True, AP(4225, 9, 1): False}
    for ap, fit in cases.items():
        assert fits(ap) == fit, ap
        for build in (lambda: progression_table(ap, factor_lists=False), lambda: prime_flags(ap)):
            if fit:
                build()
            else:
                with pytest.raises(BudgetError, match="sieve"):
                    build()
