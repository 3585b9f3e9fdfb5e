"""The reading side of the MPoly JSON payload, kept as a test oracle.

The package only writes this payload (``MPoly.to_json``, the ``expand``
and ``schur`` JSON and a listing's ``weight_sum``); the tests read it back
to check that it holds the whole polynomial.
"""

from fractions import Fraction

from truncsym.multipoly import MPoly


def coeff_from_json(obj: str):
    """A coefficient from its payload: an int or fraction string."""
    return Fraction(obj) if "/" in obj else int(obj)


def mpoly_from_json(obj: dict) -> MPoly:
    """The MPoly whose ``to_json`` payload is obj."""
    return MPoly(obj["n"], {tuple(t["exps"]): coeff_from_json(t["coeff"]) for t in obj["terms"]})
