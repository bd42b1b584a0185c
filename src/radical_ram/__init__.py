"""radical-ram: exact Galois and ramification data of radical extensions
Q(zeta_m, a^(1/m)) — conjugacy classes and character tables of the groups
C(p^s) x| G(p^r), higher ramification filtrations in both numberings,
Artin conductors, and discriminant valuations, with every closed formula
cross-checked against independent brute-force computations.
"""

from .chartab import count_by, null_subgroup
from .conductor import (
    conductor_buckets,
    disc_vp_global,
    disc_vp_local_closed,
    disc_vp_local_sum,
)
from .holomorph import GroupDesc, all_classes, class_count
from .ramfil import (
    classify_prime,
    different_sum,
    global_ram,
    herbrand_phi,
    herbrand_psi,
    lower_filtration,
    upper_filtration,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "GroupDesc",
    "all_classes",
    "class_count",
    "classify_prime",
    "conductor_buckets",
    "count_by",
    "different_sum",
    "disc_vp_global",
    "disc_vp_local_closed",
    "disc_vp_local_sum",
    "global_ram",
    "herbrand_phi",
    "herbrand_psi",
    "lower_filtration",
    "null_subgroup",
    "upper_filtration",
    "validate",
]
