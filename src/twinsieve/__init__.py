"""Twin-prime sieve over ranks m with 6m-1 and 6m+1 both prime.

The scalar layer (errors, primality, classify) is imported with the package
and needs no numpy.  Every other exported name is imported from its module on
first access (PEP 562), so `import twinsieve` loads no array layer.
"""

import importlib

from .classify import Classification, classify, rank_from_prime, twin_index
from .errors import CapacityError, DomainError
from .primality import is_prime, nearest_int, next_prime, nsix, smallest_prime_factor

__version__ = "0.1.0"

# The names loaded on first access, by the module that defines them.
_LAZY_MODULES = {
    "arith": ("primes_between", "twin_ranks"),
    "counting": ("CountsRow", "LegendreReport", "MainTermReport", "asymptote_coefficient", "asymptotic_density",
                 "counts_row", "hardy_littlewood_constant", "legendre_pi2", "m_bound", "main_term",
                 "twin_prime_constant"),
    "oracle": ("TwinRankStream", "VerifyReport", "pi2_exact", "twin_ranks_up_to", "verify_classify"),
    "progressions": ("ProgressionFamily", "RemnantReport", "ResidueSet", "boundary_twin_ranks", "crt_family",
                     "gap_pattern", "inductive_step", "nested_form", "nonranks_of", "remnants_below", "residue_set"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "CapacityError", "Classification", "DomainError", "classify", "is_prime", "nearest_int", "next_prime", "nsix",
    "rank_from_prime", "smallest_prime_factor", "twin_index", *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
