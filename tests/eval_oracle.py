"""The generating products of E and H (e and h at s = 1) at one integer point mod a prime.

Test oracle only: it multiplies out the t-series of
prod_i (1 + x_i t + ... + (x_i t)^s), or divides 1 by the factors of H, with
every x_i set to an integer, keeping t^0..t^k modulo P = 2^61 - 1.  That is
O(s*k) per variable, O(n*s*k) in all, however many terms the polynomial has.
Two distinct polynomials of degree k agree at a random point with
probability at most k/P (Schwartz 1980, Zippel 1979).
"""

import random

P = 2**61 - 1


def random_point(n: int, seed: int) -> list[int]:
    """n integers drawn uniformly from 1..P-1 by a generator seeded with seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, P) for _ in range(n)]


def _coefficient(k: int, s: int, point: list[int], inverse: bool) -> int:
    """[t^k] of prod_i f_i(t), f_i = sum_(j <= s) (x_i t)^j, or of prod_i 1/f_i(t) at -x_i, mod P."""
    out = [1] + [0] * k
    for x in point:
        f = [pow(-x if inverse else x, j, P) for j in range(s + 1)]
        if inverse:  # out = out / f: f_0 = 1, so each new coefficient uses the ones already divided
            for d in range(1, k + 1):
                out[d] = (out[d] - sum(f[j] * out[d - j] for j in range(1, min(s, d) + 1))) % P
        else:  # out = out * f, from the top down so that out[d - j] is still the old coefficient
            for d in range(k, 0, -1):
                out[d] = (out[d] + sum(f[j] * out[d - j] for j in range(1, min(s, d) + 1))) % P
    return out[k]


def E_at(k: int, s: int, point: list[int]) -> int:
    """[t^k] of prod_i (1 + x_i t + ... + (x_i t)^s) at the point, mod P; e_k at s = 1."""
    return _coefficient(k, s, point, False)


def H_at(k: int, s: int, point: list[int]) -> int:
    """[t^k] of prod_i (1 - x_i t + ... + (-x_i t)^s)^(-1) at the point, mod P; h_k at s = 1."""
    return _coefficient(k, s, point, True)


def evaluate(poly, point: list[int]) -> int:
    """The polynomial (anything with a ``terms`` mapping of exponent tuples) at the point, mod P."""
    total = 0
    for exps, c in poly.terms.items():
        term = c % P
        for x, e in zip(point, exps):
            if e:
                term = term * pow(x, e, P) % P
        total += term
    return total % P
