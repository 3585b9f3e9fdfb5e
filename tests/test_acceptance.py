"""Acceptance gate: eight timed end-to-end checks over the public API.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
suite output doubles as an acceptance report.
"""

import random
import time

import pytest

from truncsym import clear_caches
from truncsym.bisnomial import (
    bisnomial,
    pq_bisnomial,
    q_bisnomial,
)
from truncsym.combinatorics import (
    enum_paths,
    enum_tilings,
    path_sign,
    path_to_tiling,
    path_weight,
    tiling_sign,
    tiling_to_path,
    tiling_weight,
    weight_sum,
)
from truncsym.identities import default_grid, list_identities, verify, verify_grid
from truncsym.multipoly import MPoly, is_symmetric, specialize
from truncsym.partitions import enum_partitions
from truncsym.symfun import E, H, classical, m_lambda, m_lambda_at_roots

from pq_oracle import agrees_at_p1


def _criterion(num, label, capsys, budget, body):
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        suffix = f" [{detail}]" if detail else ""
        print(f"acceptance criterion {num} ({label}): PASS in {elapsed:.2f}s{suffix}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_golden_expansions(capsys):
    def body():
        clear_caches()
        e533 = E(5, 3, 3)
        assert len(e533.terms) == 12
        assert e533 == (
            m_lambda((3, 2), 3) + m_lambda((3, 1, 1), 3) + m_lambda((2, 2, 1), 3)
        )
        e323 = E(3, 2, 3)
        assert len(e323.terms) == 7
        assert e323 == m_lambda((2, 1), 3) + m_lambda((1, 1, 1), 3)
        assert H(3, 2, 3).terms == {
            (3, 0, 0): -1,
            (0, 3, 0): -1,
            (0, 0, 3): -1,
            (1, 1, 1): 1,
        }
        return "3 expansions"

    _criterion(1, "golden expansions", capsys, 1.0, body)


def test_criterion_2_classical_reductions(capsys):
    def body():
        clear_caches()
        checked = 0
        for n in range(5):
            for k in range(7):
                assert E(k, 1, n) == classical("e", k, n), ("e", k, n)
                assert H(k, 1, n) == classical("h", k, n), ("h", k, n)
                if k >= 1:
                    assert E(k, k, n) == classical("h", k, n), ("ek", k, n)
                checked += 1
        return f"{checked} reduction points"

    _criterion(2, "classical reductions", capsys, 5.0, body)


def test_criterion_3_full_identity_grid(capsys):
    def body():
        clear_caches()
        total, failed = 0, []
        for name in list_identities():
            reports = verify_grid(name, default_grid(name))
            total += len(reports)
            failed.extend(r for r in reports if not r.holds)
        assert not failed, [(r.identity_id, r.params) for r in failed[:5]]
        assert total > 3000
        return f"{total} grid points, 0 failed"

    _criterion(3, "full identity grid", capsys, 300.0, body)


def test_criterion_4_root_of_unity_layer(capsys):
    def body():
        for s in range(1, 7):
            for k in range(1, 31):
                expected = s if k % (s + 1) == 0 else -1
                assert m_lambda_at_roots((k,), s) == expected, (s, k)  # p_k at the roots
        checked = 0
        for s in range(1, 7):
            for k in range(9):
                for lam in enum_partitions(k):
                    assert type(m_lambda_at_roots(lam, s)) is int, (lam, s)
                    checked += 1
        return f"180 power sums, {checked} integral evaluations"

    _criterion(4, "root-of-unity layer", capsys, 30.0, body)


def test_criterion_5_closed_forms_at_roots(capsys):
    def body():
        total = 0
        for name in ("mroots_closed_k1", "mroots_closed_k", "mroots_closed_km1"):
            reports = verify_grid(name, default_grid(name))
            assert reports, name
            assert all(r.holds for r in reports), name
            total += len(reports)
        return f"{total} closed-form evaluations"

    _criterion(5, "closed forms at roots", capsys, 30.0, body)


def test_criterion_6_combinatorial_models(capsys):
    def body():
        assert len(enum_paths(3, 3, 2, model="E")) == 7
        assert len(enum_paths(3, 3, 2, model="H")) == 4
        points = roundtrips = 0
        for n in range(1, 5):
            for s in range(1, 4):
                for k in range(8):
                    for model in ("E", "H"):
                        target = E(k, s, n) if model == "E" else H(k, s, n)
                        assert weight_sum(n, k, s, model=model) == target
                        points += 1
                        paths = enum_paths(n, k, s, model=model)
                        tilings = enum_tilings(n, k, s, model=model)
                        assert sorted(path_to_tiling(p) for p in paths) == tilings
                        for p in paths:
                            t = path_to_tiling(p)
                            assert tiling_to_path(t) == p
                            assert tiling_weight(t, n) == path_weight(p, n)
                            assert tiling_sign(t, s) == path_sign(p, s)
                            roundtrips += 1
        return f"{points} weight sums, {roundtrips} roundtrips"

    _criterion(6, "combinatorial models", capsys, 60.0, body)


def test_criterion_7_generalized_binomials(capsys):
    def body():
        conversions = 0
        for kind in ("plain", "q", "pq", "binom_recovery", "qs_recovery"):
            for n in range(1, 5):
                for s in (2, 3, 4):
                    for k in range(7):
                        assert verify(f"conversion:{kind}", n=n, k=k, s=s).holds, (kind, n, k, s)
                        conversions += 1
        for n in range(6):
            for s in range(1, 5):
                assert sum(bisnomial(n, k, s) for k in range(s * n + 1)) == (s + 1) ** n
        for n in range(1, 5):
            for s in range(1, 4):
                for k in range(s * n + 1):
                    assert q_bisnomial(n, k, s)(1) == bisnomial(n, k, s)
                    assert agrees_at_p1(pq_bisnomial(n, k, s), q_bisnomial(n, k, s))
        return f"{conversions} conversion points"

    _criterion(7, "generalized binomials", capsys, 60.0, body)


def test_criterion_8_property_fuzz(capsys):
    def body():
        rng = random.Random(20250819)
        for _ in range(1000):
            n = rng.randint(1, 4)
            s = rng.randint(1, 4)
            k = rng.randint(0, min(s * n, 8))
            Ek, Hk = E(k, s, n), H(k, s, n)
            assert is_symmetric(Ek) and is_symmetric(Hk)
            assert Ek.is_homogeneous(k) and Hk.is_homogeneous(k)
            assert set(Ek.terms.values()) <= {1}
            if k >= 1:
                lam = rng.choice(enum_partitions(k))
                mono = m_lambda(lam, n)
                assert is_symmetric(mono) and mono.is_homogeneous(k)
            # the last variable peels off both families
            xn = MPoly.variable(n, n)
            acc, power = MPoly.zero(n), MPoly.one(n)
            for j in range(min(s, k) + 1):
                acc = acc + power * E(k - j, s, n - 1).pad(n)
                power = power * xn
            assert acc == Ek
            acc, power, sign = MPoly.zero(n), MPoly.one(n), 1
            for j in range(min(s, k) + 1):
                acc = acc + sign * (power * H(k - j, s, n))
                power = power * xn
                sign = -sign
            assert acc == H(k, s, n - 1).pad(n)
            # counting collapse stays consistent with the polynomial layer
            assert specialize(Ek, "all-ones") == bisnomial(n, k, s)
        return "1000 random points"

    _criterion(8, "property fuzz", capsys, None, body)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
