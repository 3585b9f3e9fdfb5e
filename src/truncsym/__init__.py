"""Exact arithmetic for truncated elementary and complete symmetric functions."""

from .exactalg import (
    BiPoly,
    CycInt,
    UniPoly,
    cyc_power_sum,
    cyc_root_power,
    cyclotomic_coeffs,
)
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
    bisnomial_row,
    gaussian,
    pq_bisnomial,
    pq_gaussian,
    q_bisnomial,
)
from .bisnomial import _BANDS as _bisnomial_bands
from . import identities, multipoly, symfun

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo table in the package, so the next call starts cold."""
    symfun.clear_caches()
    identities._PAIR_CONV.clear()
    _bisnomial_bands.clear()
    for cached in (bisnomial, gaussian, q_bisnomial, cyclotomic_coeffs, multipoly._layout, multipoly._display):
        cached.cache_clear()


__all__ = [
    "BiPoly",
    "CycInt",
    "E",
    "H",
    "IdentityReport",
    "MPoly",
    "P",
    "REGISTRY",
    "UniPoly",
    "bisnomial",
    "bisnomial_row",
    "classical",
    "clear_caches",
    "conjugate",
    "cyc_power_sum",
    "cyc_root_power",
    "cyclotomic_coeffs",
    "default_grid",
    "distinct_orbit",
    "enum_objects",
    "enum_partitions",
    "enum_paths",
    "enum_tilings",
    "gaussian",
    "is_partition",
    "is_symmetric",
    "list_identities",
    "m_lambda",
    "m_lambda_at_roots",
    "multinomial",
    "multiplicities",
    "path_sign",
    "path_to_tiling",
    "path_weight",
    "pq_bisnomial",
    "pq_gaussian",
    "product_over_partition",
    "q_bisnomial",
    "schur_det",
    "specialize",
    "substitute_power",
    "tiling_sign",
    "tiling_to_path",
    "tiling_weight",
    "verify",
    "verify_grid",
    "weight_sum",
]
