"""The Jacobi-Trudi determinants of the truncated Schur function, in full.

Test oracle only: it builds the whole n x n matrix det(F_(mu_i - i + j)),
mu zero-padded to length n, and expands it by Laplace along the first
row.  Its cost grows like n!, so keep n small.
"""

from truncsym.multipoly import MPoly
from truncsym.partitions import conjugate
from truncsym.symfun import E, H


def laplace_det(mat: list[list[MPoly]]) -> MPoly:
    m = len(mat)
    if m == 1:
        return mat[0][0]
    total = MPoly.zero(mat[0][0].n)
    rest = mat[1:]
    for j in range(m):
        pivot = mat[0][j]
        if not pivot:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        term = pivot * laplace_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def schur_det(lam: tuple[int, ...], s: int, n: int, basis: str) -> MPoly:
    mu, ctor = (lam, H) if basis == "h" else (conjugate(lam), E)
    mu = mu + (0,) * (n - len(mu))
    return laplace_det([[ctor(mu[i] - i + j, s, n) for j in range(n)] for i in range(n)])
