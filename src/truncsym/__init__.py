"""Exact arithmetic for truncated elementary and complete symmetric functions."""

from types import ModuleType as _Module

from .exactalg import BiPoly, UniPoly
from .multipoly import (
    MPoly,
    is_symmetric,
    specialize,
    substitute_power,
)
from .partitions import (
    conjugate,
    distinct_orbit,
    enum_partitions,
    is_partition,
    multinomial,
    multiplicities,
)
from .symfun import (
    E,
    H,
    P,
    classical,
    m_lambda,
    m_lambda_at_roots,
    product_over_partition,
    schur_det,
)
from .identities import (
    REGISTRY,
    IdentityReport,
    default_grid,
    list_identities,
    verify,
    verify_grid,
)
from .combinatorics import (
    enum_objects,
    enum_paths,
    enum_tilings,
    path_sign,
    path_to_tiling,
    path_weight,
    tiling_sign,
    tiling_to_path,
    tiling_weight,
    weight_sum,
)
from .bisnomial import (
    bisnomial,
    gaussian,
    pq_bisnomial,
    pq_gaussian,
    q_bisnomial,
)
from . import exactalg, identities, multipoly, symfun
from .bisnomial import _cell as _bisnomial_cell

__version__ = "0.1.0"


# every argument-keyed memo, bound at import so that a rebound public name (E, say) cannot hide one
_CACHES = (E, H, classical, symfun._m_lambda, symfun._at_roots, identities._pair_conv, identities._conv_sum,
           identities._roots_sum, identities._series, identities._coef_table, identities._scalar_sum,
           multipoly._layout, _bisnomial_cell)


def clear_caches() -> None:
    """Empty every memo table in the package, so the next call starts cold."""
    for cached in _CACHES:
        cached.cache_clear()
    for table in (symfun._PRODUCT_CACHE, exactalg._POWER_TEXTS):  # the two prefix-shaped memos
        table.clear()


# the public API: every name bound above that is neither private nor a submodule, pinned by the tests
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module))
