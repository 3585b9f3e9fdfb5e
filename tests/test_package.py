"""Package-level entry points."""

import doctest
import sys
from pathlib import Path

import truncsym
from truncsym import identities, multipoly, symfun


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


def test_the_public_api_is_every_name_the_package_binds_from_its_modules():
    # __all__ is computed: each of its names is defined in the package (REGISTRY is a dict, made in identities),
    # no submodule or name from outside the package joins it, and a star import binds exactly those names
    for name in truncsym.__all__:
        value = getattr(truncsym, name)
        assert getattr(value, "__module__", "").startswith("truncsym") or value is identities.REGISTRY, name
    assert len(truncsym.__all__) == 42 and {"MPoly", "E", "distinct_orbit", "verify"} <= set(truncsym.__all__)
    namespace: dict = {}
    exec("from truncsym import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == truncsym.__all__


def test_clear_caches_empties_every_memo_table():
    assert truncsym.verify("cubic_E", n=2, k=3, s=2).holds
    assert truncsym.verify("conversion:pq", n=3, k=2, s=2).holds
    assert truncsym.verify("roots_H", n=2, k=3, s=2).holds
    assert truncsym.bisnomial(3, 2, 2) == 6
    assert str(truncsym.gaussian(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert truncsym.verify("conv_roots_h", n=2, k=3, s=2).holds
    assert truncsym.verify("vanish_h", n=2, k=3, s=2).holds
    assert truncsym.verify("pk_from_H", n=2, k=3, s=2).holds
    filled = _filled_caches()
    for table in ("symfun.E", "symfun.H", "identities._pair_conv", "identities._conv_sum",
                  "identities._roots_sum", "identities._series", "identities._coef_table", "identities._scalar_sum",
                  "bisnomial._cell", "exactalg._POWER_TEXTS",
                  "symfun._PRODUCT_CACHE", "symfun._at_roots", "multipoly._layout"):
        assert f"truncsym.{table}" in filled, table
    truncsym.clear_caches()
    assert _filled_caches() == []


def test_every_cache_counts_its_hits_and_is_cleared_behind_a_rebound_name(monkeypatch):
    bisnomial = sys.modules["truncsym.bisnomial"]  # the package name is the function
    calls = {
        truncsym.E: (3, 1, 4), truncsym.H: (3, 2, 3), truncsym.classical: ("h", 2, 3),
        symfun._m_lambda: ((2, 1), 3), symfun._at_roots: ((2, 1), 2), identities._pair_conv: ("E", 2, 1, 2),
        identities._conv_sum: ("h", 2, 3, 2), identities._roots_sum: (3, 2, "h", 2), identities._series: (identities._alt_sums, "H", 2, 2),
        identities._coef_table: ("weight", 4), identities._scalar_sum: (4, 2),
        multipoly._layout: (3,),
        bisnomial._cell: (bisnomial._count_step, 4, 3, 2, 1),
    }
    assert set(calls) == set(truncsym._CACHES)
    for cached, args in calls.items():
        cached(*args)
        hits = cached.cache_info().hits
        cached(*args)
        assert cached.cache_info().hits == hits + 1, cached.__name__
    # the benchmark's tracer rebinds the public names to plain wrappers; the caches stay reachable
    real = truncsym.E
    for mod in (truncsym, symfun):
        monkeypatch.setattr(mod, "E", lambda k, s, n: real(k, s, n))
    assert truncsym.E(4, 1, 5) == real(4, 1, 5) and real.cache_info().currsize
    truncsym.clear_caches()
    assert all(cached.cache_info().currsize == 0 for cached in calls)
    assert _filled_caches() == []


def test_the_readme_library_example_runs_as_shown():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted >= 5 and result.failed == 0
