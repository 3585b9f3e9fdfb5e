"""The roots sums, partition sums and partition products, term by term.

Test oracle only: each sum is built the direct way the package's shared
shapes replace.  ``roots_sum`` adds the unreduced root-power histograms of
``roots_oracle`` per monomial and reduces each aggregate mod Phi_(s+1) to an
integer at the end; ``partition_sum`` adds one polynomial per
partition, with the coefficients in their own ring; ``plain_product``
multiplies the factors out for every call, with no memo.
"""

import roots_oracle
from truncsym.multipoly import MPoly
from truncsym.partitions import enum_partitions
from truncsym.symfun import E, H, P, classical


def plain_product(kind: str, lam: tuple, s, n: int) -> MPoly:
    out = MPoly.one(n)
    for part in lam:
        out = out * (classical(kind, part, n) if kind in ("e", "h", "p") else {"E": E, "H": H, "P": P}[kind](part, s, n))
    return out


def roots_sum(k: int, s: int, basis: str, n: int) -> MPoly:
    """sum over lam |- k, len(lam) <= s of m_lam(roots) * basis_lam, per monomial in the cyclotomic ring."""
    acc: dict = {}  # exponent tuple -> root-power histogram, in the order the sum meets the monomials
    for lam in enum_partitions(k, max_length=s):
        raw = roots_oracle.histogram(lam, s)
        for exps, coeff in plain_product(basis, lam, None, n).terms.items():
            coords = acc.setdefault(exps, [0] * len(raw))
            for i, a in enumerate(raw):
                coords[i] += a * coeff
    return MPoly(n, {exps: roots_oracle.constant(s + 1, coords) for exps, coords in acc.items()})


def partition_sum(kind: str, k: int, s: int, n: int, coef) -> MPoly:
    total = MPoly.zero(n)
    for lam in enum_partitions(k):
        total = total + coef(lam) * plain_product(kind, lam, s, n)
    return total


def z(lam: tuple) -> int:
    """z_lam = prod_i i^(t_i) t_i!, t_i the number of parts equal to i."""
    out = 1
    for part in set(lam):
        t = lam.count(part)
        for j in range(1, t + 1):
            out *= part * j
    return out
