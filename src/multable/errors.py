"""Exception hierarchy shared by all modules, and the size budgets.

The CLI maps these onto exit codes: precondition violations exit 2,
budget overruns exit 3, and internal-check failures exit 4.
"""


class MultableError(Exception):
    """Base class for all package errors."""


class PreconditionError(MultableError, ValueError):
    """An operation was called with inputs outside its contract."""


class BudgetError(MultableError, RuntimeError):
    """An operation would exceed its configured memory or enumeration budget."""


class InternalCheckError(MultableError, AssertionError):
    """A mathematically guaranteed inequality failed; indicates a bug."""


class RetriesExhaustedError(InternalCheckError):
    """A randomized search failed more often than the theory allows in practice."""


# every size refusal of the package, checked before anything of that size is
# allocated; README.md's budget table names what each bounds and who refuses
BUDGETS = {
    "kernel_pairs": 1 << 30,  # |A||B| of one pair-kernel call: its time
    "product_set_pairs": 1 << 26,  # |A||B| of a product list
    "object_pairs": 1 << 20,  # pairs of one exact Python-int fallback
    "bruteforce_pairs": 10**4,  # |A||B| of the quadratic energy oracle
    "offdiag_pairs": 10**7,  # co-occurring quotient pairs in offdiag_tuples
    "sieve": 1 << 24,  # elements of one sieve, its largest sieving prime, the limit of primes_upto
    "exact_n": 400,  # points of the exact boundary recursion
    "mc_uniforms": 1 << 32,  # samples * n of one Monte Carlo call
    "table_n": 1 << 16,  # N of the multiplication-table count
    "reduce_L": 1 << 22,  # elements of one reduce
    "dfs_nodes": 10**7,  # nodes of one walk over admissible prime tuples
}


def check_budget(name: str, used: int) -> None:
    """Raise BudgetError when ``used`` exceeds ``BUDGETS[name]``."""
    if used > BUDGETS[name]:
        raise BudgetError(f"{used} exceeds the {name} budget {BUDGETS[name]}")
