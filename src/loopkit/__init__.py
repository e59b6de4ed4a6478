"""Finite loops as multiplication tables: structure, varieties,
exhaustive search, and an infinite integer-pair loop with a
non-normal subloop."""

from . import errors
from .bk import (
    BKElement,
    BKParams,
    bk_ldiv,
    bk_mul,
    bk_rdiv,
    nonnormal_witness,
    window_audit,
)
from .core import (
    LoopTable,
    direct_product,
    dump_path,
    dumps,
    isomorphic,
    load_path,
    loads,
    opposite,
    principal_isotope,
)
from .perms import Perm, closure, inn, mlt
from .search import (
    SearchSpec,
    count_reduced,
    count_up_to_isomorphism,
    minimal_order,
    search,
)
from .structure import (
    SubloopSet,
    center,
    left_nucleus,
    middle_nucleus,
    nilpotency_class,
    nucleus,
    quotient,
    right_nucleus,
    subloop_generated,
)
from .varieties import catalog_names, check_variety, get_entry, verify_theorems

__version__ = "0.1.0"

__all__ = [
    "BKElement",
    "BKParams",
    "LoopTable",
    "Perm",
    "SearchSpec",
    "SubloopSet",
    "bk_ldiv",
    "bk_mul",
    "bk_rdiv",
    "catalog_names",
    "center",
    "check_variety",
    "closure",
    "count_reduced",
    "count_up_to_isomorphism",
    "direct_product",
    "dump_path",
    "dumps",
    "errors",
    "get_entry",
    "inn",
    "isomorphic",
    "left_nucleus",
    "load_path",
    "loads",
    "middle_nucleus",
    "minimal_order",
    "mlt",
    "nilpotency_class",
    "nonnormal_witness",
    "nucleus",
    "opposite",
    "principal_isotope",
    "quotient",
    "right_nucleus",
    "search",
    "subloop_generated",
    "verify_theorems",
    "window_audit",
]
