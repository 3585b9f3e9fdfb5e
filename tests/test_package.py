"""Package-level entry points."""

import doctest
import sys
from pathlib import Path

import truncsym


def _filled_caches():
    """Module-level memo tables (private containers, lru_caches) holding entries."""
    filled = []
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("truncsym") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            if type(value) in (dict, list, set) and attr.startswith("_") and value:
                filled.append(f"{name}.{attr}")
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                filled.append(f"{name}.{attr}")
    return filled


def test_clear_caches_empties_every_memo_table():
    assert truncsym.verify("cubic_E", n=2, k=3, s=2).holds
    assert truncsym.verify("conversion:pq", n=3, k=2, s=2).holds
    assert truncsym.verify("roots_H", n=2, k=3, s=2).holds
    assert truncsym.bisnomial(3, 2, 2) == 6
    truncsym.cyclotomic_coeffs(6)
    filled = _filled_caches()
    for table in ("symfun._E_CACHE", "symfun._H_CACHE", "identities._PAIR_CONV",
                  "bisnomial.bisnomial", "bisnomial.q_bisnomial", "exactalg.cyclotomic_coeffs",
                  "symfun._PRODUCT_CACHE", "symfun._ROOTS_CACHE", "multipoly._display"):
        assert f"truncsym.{table}" in filled, table
    truncsym.clear_caches()
    assert _filled_caches() == []


def test_the_readme_library_example_runs_as_shown():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted >= 5 and result.failed == 0
