"""m_lambda at the roots of unity through the cyclotomic ring.

Test oracle only: it counts the arrangements of lam in s slots on its own,
per raw power of a primitive m-th root w (m = s+1), unreduced, and divides
that histogram by Phi_m, built by exact division from x^m - 1.  The value
of m_lambda at the roots is the remainder, which must be a constant.  The
package counts per power mod m and sums Moebius values instead; the two
routes share nothing but the definition.
"""

from functools import cache


def divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending coeffs) by a monic den, top down."""
    rem, dd = list(num), len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):  # subtract c * x^(i-dd) * den, which clears x^i
        c = rem[i]
        if c:
            quo[i - dd] = c
            for j, d in enumerate(den):
                rem[i - dd + j] -= c * d
    return quo, rem[:dd]


@cache
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m(x), ascending: x^m - 1 divided by Phi_d for every proper divisor d of m."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = divmod_monic(num, cyclotomic(d))
            assert not any(rem), (m, d)
    return tuple(num)


def remainder(m: int, coords) -> list[int]:
    """sum_e coords[e] w^e on the basis 1, w, ..., w^(phi(m)-1): coords mod Phi_m, zero-padded."""
    phi = cyclotomic(m)
    _, rem = divmod_monic(coords, phi)
    return rem + [0] * (len(phi) - 1 - len(rem))


def constant(m: int, coords) -> int:
    """sum_e coords[e] w^e as an integer; ArithmeticError if it is not one."""
    value, *rest = remainder(m, coords)
    if any(rest):
        raise ArithmeticError(f"{coords} at the {m}-th roots of unity is not a rational integer")
    return value


@cache
def histogram(lam: tuple, s: int) -> tuple[int, ...]:
    """Arrangements of lam in the slots 1..s per raw power sum_j j * e_j of w, unreduced.

    Slot by slot from the last: slot s holds one of the distinct parts, or a
    zero while the rest still fit, and that adds s * part to the power.
    """
    out = [0] * (s * sum(lam) + 1)
    if len(lam) > s:
        return tuple(out)
    if not s:
        return (1,)
    for p in set(lam) | ({0} if len(lam) < s else set()):
        rest = list(lam)
        if p:
            rest.remove(p)
        for e, c in enumerate(histogram(tuple(rest), s - 1)):
            out[s * p + e] += c
    return tuple(out)


def at_roots(lam: tuple, s: int) -> int:
    """m_lambda at the s nontrivial (s+1)-th roots of unity."""
    return constant(s + 1, histogram(lam, s))
