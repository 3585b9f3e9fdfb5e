"""The generating products of E and H, expanded literally as truncated series.

Test oracle only: a series is the list of its MPoly coefficients of t^0..t^T.
It multiplies out prod_i (1 + c x_i t + ... + (c x_i t)^s) and, for H, inverts
it.  Its cost grows with the truncation order whatever k is asked for, so keep
n and s small.
"""

from truncsym.multipoly import MPoly


def series_product(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """a * b, truncated to the shorter of the two."""
    zero = MPoly.zero(a[0].n)
    return [sum((a[j] * b[m - j] for j in range(m + 1)), zero) for m in range(min(len(a), len(b)))]


def series_inverse(u: list[MPoly]) -> list[MPoly]:
    """1 / u at the length of u; the constant coefficient must be 1."""
    if u[0] != 1:
        raise ValueError("series inverse requires constant term 1")
    inv = [u[0]]
    for m in range(1, len(u)):
        inv.append(-sum((u[j] * inv[m - j] for j in range(1, m + 1)), MPoly.zero(u[0].n)))
    return inv


def _factor_product(s: int, n: int, c: int, T: int) -> list[MPoly]:
    """prod_i sum_(j <= s) (c x_i t)^j, truncated after t^T."""
    out = [MPoly.one(n)] + [MPoly.zero(n)] * T
    for i in range(n):
        factor = [MPoly.monomial(n, tuple(j if col == i else 0 for col in range(n)), c**j) for j in range(s + 1)]
        out = series_product(out, factor + [MPoly.zero(n)] * (T - s))
    return out


def e_series(s: int, n: int) -> list[MPoly]:
    """E(k, s, n) for k = 0 .. s*n."""
    return _factor_product(s, n, 1, s * n)


def h_series(s: int, n: int, upto: int) -> list[MPoly]:
    """H(k, s, n) for k = 0 .. upto."""
    return series_inverse(_factor_product(s, n, -1, upto))
