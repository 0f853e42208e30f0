import inspect

import pytest

import multable
from multable.energy import EnergyReport, energy
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
