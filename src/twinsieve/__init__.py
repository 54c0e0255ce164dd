"""Twin-prime sieve over ranks m with 6m-1 and 6m+1 both prime."""

from .arith import (
    is_prime,
    nearest_int,
    next_prime,
    nsix,
    primes_between,
    smallest_prime_factor,
    twin_ranks,
)
from .classify import (
    Classification,
    classify,
    nonranks_of,
    rank_from_prime,
    twin_index,
)
from .counting import (
    CountsRow,
    LegendreReport,
    MainTermReport,
    asymptote_coefficient,
    asymptotic_density,
    counts_row,
    hardy_littlewood_constant,
    legendre_pi2,
    m_bound,
    main_term,
    twin_prime_constant,
)
from .errors import CapacityError, DomainError
from .oracle import (
    TwinRankStream,
    VerifyReport,
    pi2_exact,
    twin_ranks_up_to,
    verify_classify,
)
from .progressions import (
    ProgressionFamily,
    RemnantReport,
    ResidueSet,
    boundary_twin_ranks,
    crt_family,
    gap_pattern,
    inductive_step,
    nested_form,
    remnants_below,
    residue_set,
)

__version__ = "0.1.0"
