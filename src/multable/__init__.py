"""Exact computation around product sets of arithmetic progressions:
multiplicative energy, the density reduction pipeline, prime statistics
with constrained factorizations, and order-statistic boundary probabilities.
"""

__version__ = "0.1.0"

from .progressions import ArithmeticProgression, dilate, intset
from .sieve import (
    FactorizationTable,
    build_table,
    count_large_square_divisible,
    mertens_sum,
)
from .energy import (
    EnergyReport,
    cs_energy_split,
    cs_product_lower_bound,
    energy,
    energy_bruteforce,
    offdiag_tuples,
    product_set,
    random_energy_subset,
)
from .reduction import (
    DirectBound,
    Reduced,
    ReductionTrace,
    large_a_energy_bound,
    reduce,
    squarefree_reduce,
    trimmed_set,
)
from .primestats import (
    NkQuery,
    ShiuQuery,
    nk_last_prime_extension,
    nk_set,
    prime_count_ap,
    reciprocal_sum_lower,
    shiu_mean,
)
from .smirnov import (
    SmirnovBoundary,
    volume_sandwich,
    noncrossing_probability_exact,
    noncrossing_probability_mc,
    q_n,
    region_volume,
)

__all__ = [
    "ArithmeticProgression",
    "DirectBound",
    "EnergyReport",
    "FactorizationTable",
    "NkQuery",
    "Reduced",
    "ReductionTrace",
    "ShiuQuery",
    "SmirnovBoundary",
    "build_table",
    "volume_sandwich",
    "count_large_square_divisible",
    "cs_energy_split",
    "cs_product_lower_bound",
    "dilate",
    "energy",
    "energy_bruteforce",
    "intset",
    "large_a_energy_bound",
    "mertens_sum",
    "nk_last_prime_extension",
    "nk_set",
    "noncrossing_probability_exact",
    "noncrossing_probability_mc",
    "offdiag_tuples",
    "prime_count_ap",
    "product_set",
    "q_n",
    "random_energy_subset",
    "reduce",
    "region_volume",
    "reciprocal_sum_lower",
    "shiu_mean",
    "squarefree_reduce",
    "trimmed_set",
]
