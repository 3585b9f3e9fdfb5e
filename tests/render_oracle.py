"""The term-by-term rendering rule of the rings, kept as a test oracle.

Each term becomes one (coefficient, monomial text) pair and one part, and
a second pass joins the parts.  The package renders in one pass over the
coefficients, which must give the same text.
"""

from typing import Iterable


def power_text(var: str, e: int) -> str:
    """var^e as text: '' for e = 0, var for e = 1."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def render_terms(terms: Iterable[tuple[object, str]]) -> str:
    """'a + b - c' from (coefficient, monomial text) pairs."""
    parts = [
        str(c) if not mono
        else mono if c == 1
        else f"-{mono}" if c == -1
        else f"{c}*{mono}"
        for c, mono in terms
    ]
    if not parts:
        return "0"
    return parts[0] + "".join([f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in parts[1:]])


def dense_text(coeffs, var: str) -> str:
    """A UniPoly: ascending powers of var."""
    return render_terms([(c, power_text(var, e)) for e, c in enumerate(coeffs) if c])


def bipoly_text(terms: dict) -> str:
    """A BiPoly from its {(p_exp, q_exp): coeff} terms, ascending p-exponent."""
    return render_terms(
        [(c, power_text("p", i) + ("*" if i and j else "") + power_text("q", j)) for (i, j), c in sorted(terms.items())]
    )


def bipoly_json(terms: dict) -> list[list]:
    return [[i, j, str(c)] for (i, j), c in sorted(terms.items())]
