import inspect
import re
from pathlib import Path

import pytest

import multable
from multable.energy import EnergyReport, energy
from multable.reduction import ReductionTrace
from multable.sieve import FactorizationTable

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
