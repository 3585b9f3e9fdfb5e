"""The reading side of the MPoly JSON payload, kept as a test oracle.

The package only writes this payload (``MPoly.to_json``, the ``expand``
and ``schur`` JSON and a listing's ``weight_sum``); the tests read it back
to check that it holds the whole polynomial.
"""

from fractions import Fraction

from truncsym.exactalg import BiPoly, CycInt, UniPoly
from truncsym.multipoly import MPoly


def coeff_from_json(obj: object):
    """A coefficient from its payload: an int or fraction string, or a ring value dict."""
    if isinstance(obj, str):
        return Fraction(obj) if "/" in obj else int(obj)
    if isinstance(obj, dict):
        if "order" in obj:
            return CycInt(obj["order"], [int(c) for c in obj["coeffs"]])
        if "q" in obj:
            return UniPoly([int(c) for c in obj["q"]])
        if "pq" in obj:
            return BiPoly({(i, j): int(c) for i, j, c in obj["pq"]})
    raise ValueError(f"unrecognized coefficient payload: {obj!r}")


def mpoly_from_json(obj: dict) -> MPoly:
    """The MPoly whose ``to_json`` payload is obj."""
    return MPoly(obj["n"], {tuple(t["exps"]): coeff_from_json(t["coeff"]) for t in obj["terms"]})
