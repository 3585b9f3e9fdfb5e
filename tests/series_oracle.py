"""The generating products of E and H, expanded literally as truncated series.

Test oracle only: it multiplies out prod_i (1 + c x_i t + ... + (c x_i t)^s)
with ``TSeries`` and, for H, inverts it.  Its cost grows with the truncation
order whatever k is asked for, so keep n and s small.
"""

from truncsym.multipoly import MPoly, TSeries


def _factor_product(s: int, n: int, c: int, T: int) -> TSeries:
    """prod_i sum_(j <= s) (c x_i t)^j, truncated after t^T."""
    out = TSeries.one(n, T)
    for i in range(n):
        factor = [
            MPoly.monomial(n, tuple(j if col == i else 0 for col in range(n)), c**j)
            for j in range(s + 1)
        ]
        out = out * TSeries.from_polys(n, T, factor)
    return out


def e_series(s: int, n: int) -> list[MPoly]:
    """E(k, s, n) for k = 0 .. s*n."""
    return _factor_product(s, n, 1, s * n).coeffs


def h_series(s: int, n: int, upto: int) -> list[MPoly]:
    """H(k, s, n) for k = 0 .. upto."""
    return _factor_product(s, n, -1, upto).inverse().coeffs
