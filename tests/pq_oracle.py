"""The (p,q) triangles built by their own two-parameter recurrences.

Test oracle only: ``pq_gaussian`` and ``pq_bisnomial`` homogenize their
q-versions, while these build the (p,q) terms directly, row by row.
"""

from truncsym.exactalg import BiPoly, UniPoly


def agrees_at_p1(value: BiPoly, u: UniPoly) -> bool:
    """value(1, q) == u(q) at one more q than either degree: value at p = 1 is u."""
    return all(value(1, q) == u(q) for q in range(max(value.degree, u.degree) + 1))


def _shifted_sum(parts: list[tuple[int, int, dict]]) -> dict:
    """Terms of sum p^dp q^dq * poly over (dp, dq, terms) triples."""
    out: dict = {}
    for dp, dq, terms in parts:
        for (i, j), c in terms.items():
            key = (i + dp, j + dq)
            out[key] = out.get(key, 0) + c
    return out


def pq_gaussian_rows(n_max: int) -> list[list[BiPoly]]:
    """rows[n][k] for k = 0..n, by PG(n, k) = p^(n-k) PG(n-1, k-1) + q^k PG(n-1, k)."""
    rows = [[{(0, 0): 1}]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        middle = [_shifted_sum([(n - k, 0, prev[k - 1]), (0, k, prev[k])]) for k in range(1, n)]
        rows.append([{(0, 0): 1}, *middle, {(0, 0): 1}])
    return [[BiPoly(terms) for terms in row] for row in rows]


def pq_bisnomial_rows(n_max: int, s: int) -> list[list[BiPoly]]:
    """rows[n][k] for k = 0..s*n, by PQ(n, k) = sum_j q^(j(n-1)) p^(k-j) PQ(n-1, k-j)."""
    rows = [[{(0, 0): 1}]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([
            _shifted_sum([
                (k - j, j * (n - 1), prev[k - j])
                for j in range(min(s, k) + 1)
                if k - j < len(prev)
            ])
            for k in range(s * n + 1)
        ])
    return [[BiPoly(terms) for terms in row] for row in rows]
