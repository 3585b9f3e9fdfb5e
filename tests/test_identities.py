"""Unit tests for the identity registry and the verification runners."""

import hashlib
import json
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncsym
import sum_oracle
from series_oracle import series_inverse, series_product
from truncsym import identities, multipoly, symfun
from truncsym.exactalg import BiPoly
from truncsym.multipoly import MPoly
from truncsym.symfun import E, H, classical
from truncsym.identities import (
    REGISTRY,
    IdentityReport,
    IdentitySpec,
    _linear_passes,
    default_grid,
    list_identities,
    verify,
    verify_grid,
)

EXPECTED_IDS = [
    "ortho",
    "inv_H",
    "inv_E",
    "newton_E",
    "newton_H",
    "newton_P",
    "cubic_E",
    "cubic_H",
    "pk_from_E",
    "pk_from_H",
    "P_from_E",
    "P_from_H",
    "scalar_c",
    "H_from_P",
    "E_from_P",
    "rec_H",
    "rec_E",
    "roots_H",
    "roots_E",
    "conj_bridge",
    "conv_H",
    "conv_E",
    "conv_roots_h",
    "conv_roots_e",
    "mroots_closed_k1",
    "mroots_closed_k",
    "mroots_closed_km1",
    "powsub_h",
    "powsub_e",
    "vanish_h",
    "vanish_e",
    "mono_H",
    "mono_bridge",
    "conversion:plain",
    "conversion:q",
    "conversion:pq",
    "conversion:binom_recovery",
    "conversion:qs_recovery",
]


def test_registry_lists_every_identity_in_a_stable_order():
    assert list_identities() == EXPECTED_IDS
    assert list(REGISTRY) == EXPECTED_IDS


def test_every_identity_holds_on_a_modest_grid():
    for name in list_identities():
        grid = default_grid(name, n_max=3, s_max=3)
        reports = verify_grid(name, grid)
        assert reports, name
        bad = [r for r in reports if not r.holds]
        assert not bad, (name, [r.params for r in bad])


def test_verify_rejects_unknown_and_misparameterized_calls():
    with pytest.raises(ValueError):
        verify("not_an_identity", k=1)
    with pytest.raises(ValueError):
        verify("ortho", k=0, s=1)  # missing n
    with pytest.raises(ValueError):
        verify("ortho", k=0, s=1, n=1, extra=7)
    with pytest.raises(ValueError):
        verify("vanish_h", k=4, s=2, n=2)  # k must avoid multiples of s
    with pytest.raises(ValueError):
        verify("mroots_closed_km1", lam=(1,))  # weight too small


def test_report_json_is_stable_and_ordered():
    r = verify("ortho", n=1, k=0, s=1)
    line = r.to_json(include_elapsed=False)
    assert line == (
        '{"identity_id": "ortho", "params": {"k": 0, "n": 1, "s": 1}, '
        '"holds": true, "lhs": "1", "rhs": "1"}'
    )
    full = json.loads(r.to_json())
    assert list(full) == ["identity_id", "params", "holds", "lhs", "rhs", "elapsed"]
    assert full["elapsed"] >= 0


def test_partition_identities_report_the_partition():
    r = verify("mroots_closed_k", lam=(2, 1))
    assert r.holds
    assert json.loads(r.to_json())["params"] == {"lam": [2, 1]}


def test_scalar_aggregate_goldens():
    assert verify("scalar_c", k=6, s=2).lhs == "2"
    assert verify("scalar_c", k=5, s=2).lhs == "-1"
    assert verify("scalar_c", k=5, s=2).holds


def test_large_polynomials_are_reported_as_digests():
    r = verify("powsub_h", n=4, k=6, s=2)
    assert r.holds
    assert r.lhs == r.rhs
    assert r.lhs.startswith("<") and "terms, degree" in r.lhs and "sha256" in r.lhs


@pytest.mark.parametrize("n", [1, 8])
def test_a_digest_hashes_the_sorted_json_of_the_value(n):
    # the digest's text is written from a template; json.dumps of the value's dict is the oracle
    coeffs = [Fraction(-3, 7), -2, Fraction(5, 2), 1, -1, 12345678901234567890]
    for size in (41, 97):
        exps = [tuple((j * 7 + i * 3) % 11 for i in range(n - 1)) + (j,) for j in range(size)]
        value = MPoly(n, {e: coeffs[j % len(coeffs)] for j, e in enumerate(exps)})
        blob = json.dumps(value.to_json(), sort_keys=True).encode()
        expected = f"<{size} terms, degree {value.degree()}, sha256 {hashlib.sha256(blob).hexdigest()[:12]}>"
        assert identities._describe(value) == expected, (n, size)


def _report_json_oracle(report: IdentityReport, include_elapsed: bool) -> str:
    """The report line as json.dumps writes the report's fields, params sorted by name."""
    payload = dict(report._asdict(), params=dict(sorted(report.params.items())), elapsed=round(report.elapsed, 6))
    if not include_elapsed:
        del payload["elapsed"]
    return json.dumps(payload, separators=(", ", ": "))


REPORT_TEXTS = st.one_of(st.text(), st.sampled_from(['error: ValueError: "x" \\ \u00e9 \u2211 \U0001f600', "\n\t\x00\x7f"]))


@given(
    st.sampled_from(list(REGISTRY)),
    st.one_of(
        st.fixed_dictionaries({"n": st.integers(1, 9), "k": st.integers(-3, 99), "s": st.integers(1, 9)}),
        st.fixed_dictionaries({"k": st.integers(0, 9), "s": st.integers(1, 9)}),
        st.fixed_dictionaries({"lam": st.lists(st.integers(1, 12), max_size=6)}),
    ),
    st.booleans(), REPORT_TEXTS, REPORT_TEXTS,
    st.one_of(st.floats(0, 1e4, allow_nan=False), st.sampled_from([0.0, 1e-9, 0.1234565, 2.5e-7, 123456.7890123])),
)
def test_a_report_line_is_the_json_dump_of_its_fields(name, params, holds, lhs, rhs, elapsed):
    # quotes, backslashes, control and non-ASCII characters in the texts; a lam point; elapsed on and off
    report = IdentityReport(name, params, holds, lhs, rhs, elapsed)
    for include_elapsed in (True, False):
        assert report.to_json(include_elapsed=include_elapsed) == _report_json_oracle(report, include_elapsed)


def test_the_reports_of_a_sweep_are_the_json_dumps_of_their_fields():
    reports = [*verify_grid("mroots_closed_k", {"k": range(2, 6)}), *verify_grid("ortho", default_grid("ortho"))]
    reports.append(IdentityReport("ortho", {"n": 1, "k": 0, "s": 1}, False, 'error: ArithmeticError: "\u00e9" \\', "", 0.5))
    for report in reports:
        for include_elapsed in (True, False):
            assert report.to_json(include_elapsed=include_elapsed) == _report_json_oracle(report, include_elapsed)


FOLDED, RAISED = [ZeroDivisionError, RuntimeError, ArithmeticError], [ValueError, OverflowError]


@pytest.mark.parametrize("error", FOLDED + RAISED, ids=lambda error: error.__name__)
def test_check_exceptions_fold_into_a_failing_report(error, monkeypatch):
    # a value the package cannot build (ValueError, OverflowError) is an error, not a failed identity
    def check(k):
        raise error("boom")

    monkeypatch.setitem(REGISTRY, "boom", IdentitySpec(name="boom", arity=("k",), check=check))
    if error in RAISED:
        for run in (lambda: verify("boom", k=1), lambda: verify_grid("boom", {"k": [1]})):
            with pytest.raises(error, match="^boom$") as raised:
                run()
            assert raised.type is error  # not the NoValidPoint of a grid
    else:
        r = verify("boom", k=1)
        assert (r.holds, r.lhs, r.rhs) == (False, f"error: {error.__name__}: boom", "")


def test_a_point_the_package_cannot_build_raises():
    with pytest.raises(ValueError, match="exponent tuples need 1 entries"):
        verify("ortho", n=1, k=2**31, s=1)


@pytest.mark.parametrize("sides", [
    lambda: (E(6, 2, 5), E(6, 2, 5) + MPoly.one(5)),  # past 40 terms: two digests
    lambda: (E(2, 1, 3), H(2, 1, 3)),
    lambda: (MPoly.constant(2, Fraction(1, 2)), Fraction(1, 2)),  # equal across types, rendered each on its own
    lambda: (Fraction(3), 3),
])
def test_each_side_of_a_point_is_reported_in_its_own_text(sides):
    # verify renders the right side once more only when it is not an equal value of the same type
    lhs, rhs = sides()
    REGISTRY["sides"] = IdentitySpec(name="sides", arity=("k",), check=lambda k: (lhs, rhs))
    try:
        r = verify("sides", k=1)
    finally:
        del REGISTRY["sides"]
    assert (r.holds, r.lhs, r.rhs) == (lhs == rhs, identities._describe(lhs), identities._describe(rhs))


def test_a_value_is_rendered_at_its_first_report_only(monkeypatch):
    texts, digests = [], []
    str_route, sha_route = MPoly.__str__, hashlib.sha256
    monkeypatch.setattr(MPoly, "__str__", lambda p: texts.append(p) or str_route(p))
    monkeypatch.setattr(hashlib, "sha256", lambda blob: digests.append(blob) or sha_route(blob))
    small, large = E(2, 1, 3) + MPoly.one(3), E(6, 2, 5) + MPoly.one(5)  # new values: 4 and past 40 terms
    first = [identities._describe(small), identities._describe(large)]
    assert [identities._describe(small), identities._describe(large)] == first
    assert (texts, len(digests)) == ([small], 1)
    assert first[0] == str_route(small)
    assert len(large.terms) > 40 and large._report == first[1] and len(first[1]) < 100  # the slot holds no term text
    assert first[1].startswith(f"<{len(large.terms)} terms, degree 6, sha256 ")


@pytest.mark.parametrize("make", [lambda: E(2, 1, 3), lambda: E(6, 2, 5), lambda: MPoly.constant(2, Fraction(1, 2))])
def test_equal_values_report_alike(make):
    value = make()
    twin = MPoly(value.n, dict(value.terms))
    assert twin is not value and twin == value
    assert identities._describe(twin) == identities._describe(value)


def test_the_report_params_are_in_arity_order_with_lam_a_list():
    assert list(verify("ortho", s=2, k=1, n=3).params) == ["n", "k", "s"]
    assert list(verify("conversion:plain", k=1, n=2, s=2).params) == ["s", "n", "k"]
    assert [list(r.params) for r in verify_grid("conversion:q", {"k": [1], "n": [2], "s": [2]})] == [["s", "n", "k"]]
    for r in (verify("mroots_closed_k", lam=(2, 1)), *verify_grid("mroots_closed_k", {"k": [3]})):
        assert type(r.params["lam"]) is list and sum(r.params["lam"]) == 3


def test_each_point_is_validated_once_and_its_sides_compared_once(monkeypatch):
    validated, compared = [], []

    class Side:
        def __eq__(self, other):
            compared.append(other)
            return True

    def rule(spec, **point):
        validated.append(point)
        return real_rule(spec, **point)

    real_rule = IdentitySpec.why_invalid
    monkeypatch.setattr(IdentitySpec, "why_invalid", rule)
    spec = IdentitySpec(name="spy", check=lambda n, k, s: (Side(), Side()), s_min=2)
    monkeypatch.setitem(REGISTRY, "spy", spec)
    reports = verify_grid("spy", {"n": [0, 1, 2], "k": [0, 1], "s": [1, 2]})  # 12 points, 4 of them valid
    assert (len(validated), len(compared), len(reports)) == (12, 4, 4)
    assert all(r.holds for r in reports)
    validated.clear()
    compared.clear()
    assert verify("spy", n=1, k=0, s=2).holds
    assert (len(validated), len(compared)) == (1, 1)


def test_verification_is_deterministic():
    a = verify("newton_E", n=3, k=4, s=2).to_json(include_elapsed=False)
    b = verify("newton_E", n=3, k=4, s=2).to_json(include_elapsed=False)
    assert a == b


def test_grid_runner_skips_invalid_points():
    reports = verify_grid("vanish_h", {"n": range(1, 3), "k": range(1, 7), "s": range(2, 4)})
    assert len(reports) == 14
    assert all(r.holds for r in reports)
    assert all(r.params["k"] % r.params["s"] != 0 for r in reports)


def test_grid_runner_expands_partitions_from_the_weight_range():
    reports = verify_grid("mroots_closed_k", {"k": range(2, 5)})
    lams = [tuple(r.params["lam"]) for r in reports]
    assert (2,) in lams and (2, 1) in lams and (2, 2) in lams
    assert (1, 1) not in lams  # too many parts for the slot count
    assert all(2 <= sum(lam) <= 4 for lam in lams)
    assert all(r.holds for r in reports)


def test_default_grid_shapes():
    g = default_grid("ortho")
    assert set(g) == {"n", "k", "s"}
    assert default_grid("mroots_closed_k")["k"] == range(2, 9)
    assert default_grid("vanish_h")["s"] == range(2, 5)
    with pytest.raises(ValueError):
        default_grid("nope")


def test_report_is_a_plain_record():
    r = IdentityReport(
        identity_id="x", params={"k": 1}, holds=True, lhs="0", rhs="0", elapsed=0.0
    )
    assert json.loads(r.to_json())["holds"] is True
    assert r == ("x", {"k": 1}, True, "0", "0", 0.0)


def test_a_grid_with_no_valid_point_is_an_error():
    with pytest.raises(ValueError, match="no valid point for conv_H: s must be >= 2"):
        verify_grid("conv_H", {"n": [1], "k": [0, 1], "s": [1]})
    with pytest.raises(ValueError, match="no valid point for mroots_closed_km1: weight must be >= 3"):
        verify_grid("mroots_closed_km1", {"k": range(3)})
    with pytest.raises(identities.NoValidPoint, match="no valid point for mroots_closed_k: the grid has no point"):
        verify_grid("mroots_closed_k", {"k": [-2, -1]})


def test_a_negative_weight_has_no_partition_to_check():
    def lines(weights):
        return [r.to_json(include_elapsed=False) for r in verify_grid("mroots_closed_k", {"k": weights})]

    assert lines(range(-1, 4)) == lines(range(2, 4))
    assert [json.loads(line)["params"]["lam"] for line in lines(range(-1, 4))] == [[2], [3], [2, 1]]


# One constructor per identity that its check reads on one side only (for
# rec_H and rec_E, the only family they read).  Returning a wrong value from
# it must fail some point of a small grid: a row that compares a route with
# itself, or drops the operand, would still pass.  The sums over partitions
# that ``enum_partitions`` made call the bodies of m_lambda and
# m_lambda_at_roots past validation, ``_m_lambda`` and ``_at_roots``.
ONE_SIDED = {
    "ortho": "E", "inv_H": "H", "inv_E": "E", "newton_E": "P", "newton_H": "P",
    "newton_P": "P", "cubic_E": "H", "cubic_H": "E", "pk_from_E": "classical",
    "pk_from_H": "classical", "P_from_E": "P", "P_from_H": "P", "scalar_c": "multinomial",
    "H_from_P": "H", "E_from_P": "E", "rec_H": "H", "rec_E": "E", "roots_H": "H",
    "roots_E": "E", "conj_bridge": "_m_lambda", "conv_H": "H", "conv_E": "E",
    "conv_roots_h": "_at_roots", "conv_roots_e": "_at_roots",
    "mroots_closed_k1": "m_lambda_at_roots", "mroots_closed_k": "m_lambda_at_roots",
    "mroots_closed_km1": "m_lambda_at_roots", "powsub_h": "H", "powsub_e": "E",
    "vanish_h": "H", "vanish_e": "E", "mono_H": "_m_lambda", "mono_bridge": "_m_lambda",
    "conversion:plain": "bisnomial", "conversion:q": "gaussian", "conversion:pq": "pq_bisnomial",
    "conversion:binom_recovery": "bisnomial", "conversion:qs_recovery": "q_bisnomial",
}


def _wrong(value):
    """A value other than a nonzero value: doubled for a BiPoly, else one more."""
    return value * 2 if isinstance(value, BiPoly) else value + 1


@pytest.mark.parametrize("name", EXPECTED_IDS)
def test_every_identity_fails_when_a_one_sided_constructor_is_wrong(name, monkeypatch):
    real = getattr(identities, ONE_SIDED[name])
    monkeypatch.setattr(identities, ONE_SIDED[name], lambda *args: _wrong(real(*args)))
    truncsym.clear_caches()
    try:
        reports = verify_grid(name, default_grid(name, n_max=2, k_max=4, s_max=3))
    finally:
        truncsym.clear_caches()
    assert any(not r.holds for r in reports), (name, ONE_SIDED[name])


# The checks whose right side is a product of a graded series with
# prod_i (1 + x_i t)^(-1) or prod_i (1 - x_i t), computed by linear passes.
# The rows that convolve E with H (or E with E) at one s stay on the product
# kernel: a pass with the family's own factor is the constructors' guard.
PASS_ROUTED = {"powsub_h", "powsub_e", "vanish_h", "vanish_e"}


def test_exactly_the_alternating_sums_run_on_linear_passes(monkeypatch):
    def refuse(*args):
        raise RuntimeError("linear pass")

    monkeypatch.setattr(identities, "_linear_passes", refuse)
    truncsym.clear_caches()  # a warm series memo would not reach the passes
    failing = set()
    for name in EXPECTED_IDS:
        for report in verify_grid(name, default_grid(name, n_max=2, k_max=3, s_max=3)):
            if not report.holds:
                assert report.lhs == "error: RuntimeError: linear pass", (name, report.params)
                failing.add(name)
    assert failing == PASS_ROUTED


def test_every_sum_of_products_goes_through_the_one_kernel_entry(monkeypatch):
    # rebind the kernel as a tracer does, where identities and symfun bind it, and record which shape calls it
    kernel, callers = multipoly.sum_of_products, []

    def counting(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # before Python 3.12 a comprehension runs in a frame of its own
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return kernel(*args)

    for module in (identities, symfun):
        monkeypatch.setattr(module, "sum_of_products", counting)
    truncsym.clear_caches()  # a memoized side would not reach the kernel
    for name, shapes in [("powsub_h", {"_linear_passes"}), ("vanish_e", {"_linear_passes"}),
                         ("inv_H", {"_partition_sum"}), ("roots_H", {"_roots_sum"}), ("ortho", {"_chk_ortho"}),
                         ("mono_H", {"_rebuilt_H", "_mono_sum"}), ("conj_bridge", {"_chk_conj_bridge", "_roots_sum"})]:
        callers.clear()
        assert verify(name, n=2, k=3, s=2).holds
        assert set(callers) - {"_split"} == shapes, (name, callers)  # a cold E, H or classical value is split
    truncsym.clear_caches()
    callers.clear()
    assert E(3, 2, 4) == symfun.m_lambda((2, 1), 4) + symfun.m_lambda((1, 1, 1), 4)
    assert callers == ["_split"] * 5  # E(3, 2, 4), then E(j, 2, 2) for j = 0..3; one variable is a closed form
    callers.clear()
    assert symfun.schur_det((2, 1), 2, 4) == symfun.schur_det((2, 1), 2, 4, basis="e")
    assert set(callers) == {"_det", "_split"}, callers  # the cold H of the first determinant are split


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.booleans(), st.data())
def test_linear_passes_match_the_series_oracle(n, m, divide, data):
    # any series, not only a symmetric one: a pass on the wrong variable shows
    exps = st.tuples(*[st.integers(0, 2)] * n)
    series = [MPoly(n, data.draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))) for _ in range(m + 1)]
    factor = [MPoly.one(n)] + [MPoly.zero(n)] * m  # prod_i (1 + x_i t), or (1 - x_i t) to multiply
    for i in range(1, n + 1):
        step = [MPoly.one(n), (1 if divide else -1) * MPoly.variable(n, i)] + [MPoly.zero(n)] * (m - 1)
        factor = series_product(factor, step[: m + 1])
    expected = series_product(series, series_inverse(factor) if divide else factor)
    assert list(_linear_passes(n, series, divide)) == expected  # every degree, one term per series term


def _pass_steps(monkeypatch):
    """The kernel calls made from the pass generator, counted from here on."""
    kernel, steps = multipoly.sum_of_products, []

    def counting(*args):
        if sys._getframe(1).f_code.co_name == "_linear_passes":
            steps.append(args)
        return kernel(*args)

    monkeypatch.setattr(identities, "sum_of_products", counting)
    return steps


def test_every_k_of_a_sweep_reads_one_run_of_the_passes(monkeypatch):
    steps = _pass_steps(monkeypatch)
    truncsym.clear_caches()
    try:
        assert all(r.holds for r in verify_grid("powsub_h", {"n": [2], "k": range(1, 7), "s": [3]}))
        swept = len(steps)
        truncsym.clear_caches()
        assert verify("powsub_h", n=2, k=6, s=3).holds
    finally:
        truncsym.clear_caches()
    assert swept == len(steps) - swept == 2 * 6 * 3  # one call per pass and degree, degrees 1..k*s


def test_a_registry_sweep_builds_each_roots_and_convolution_sum_once(monkeypatch):
    requested = {}  # the cache -> the argument tuple of every call the checks make
    for name in ("_roots_sum", "_conv_sum"):
        cached = getattr(identities, name)
        requested[cached] = []
        monkeypatch.setattr(identities, name, lambda *args, c=cached: requested[c].append(args) or c(*args))
    truncsym.clear_caches()
    try:
        for name in list_identities():  # as verify --id all
            assert all(r.holds for r in verify_grid(name, default_grid(name))), name
        for cached, calls in requested.items():  # shared by two or three identities each
            assert cached.cache_info().misses == len(set(calls)) < len(calls), cached.__name__
    finally:
        truncsym.clear_caches()


def test_a_cold_sweep_builds_each_coefficient_table_once(monkeypatch):
    tables, scalars = identities._coef_table, identities._scalar_sum
    requested = {tables: [], scalars: []}  # the memo -> the argument tuple of every call the checks make
    for cached in requested:
        monkeypatch.setattr(identities, cached.__name__, lambda *args, c=cached: requested[c].append(args) or c(*args))
    truncsym.clear_caches()
    try:
        for name in list_identities():  # as verify --id all
            assert all(r.holds for r in verify_grid(name, default_grid(name))), name
        misses = [cached.cache_info().misses for cached in requested]
    finally:
        truncsym.clear_caches()
    # inv_* at k = 0..6, pk_from_* and P_from_* at 1..6, *_from_P at 1..6; the scalars of scalar_c at
    # k = 1..8 and s = 1..4, of which pk_from_* read those with k <= 6 at every n
    assert set(requested[tables]) == {("mult", k) for k in range(7)} | {
        (rule, k) for rule in ("weight", "z", "signed_z") for k in range(1, 7)}
    assert set(requested[scalars]) == {(k, s) for k in range(1, 9) for s in range(1, 5)}
    # 800 table reads and 224 scalar reads: (n, s) in 4 x 4 for each k of each identity but scalar_c's (k, s)
    assert misses == [25, 32] and [len(calls) for calls in requested.values()] == [800, 32 + 2 * 6 * 4 * 4]


@pytest.mark.parametrize("error", [ValueError, OverflowError, RuntimeError])
@pytest.mark.parametrize("make, kind, family", [("_alt_sums", ("H",), "H"), ("_alt_sums", ("E",), "E"),
                                                ("_rebuilt_H", (), "E")])
def test_a_series_that_raised_while_growing_is_made_afresh(make, kind, family, error, monkeypatch):
    n, s, top = 2, 3, 7

    def term(m):
        return identities._term(m, getattr(identities, make), *kind, n, s)

    truncsym.clear_caches()
    expected = [term(m) for m in range(top + 1)]
    truncsym.clear_caches()
    real, raised = getattr(identities, family), []

    def once(k, s, n):  # the constructor fails the first time degree 4 is asked for
        if k == 4 and not raised:
            raised.append(k)
            raise error("once")
        return real(k, s, n)

    monkeypatch.setattr(identities, family, once)
    try:
        assert term(2) == expected[2]
        with pytest.raises(error):
            term(top)
        assert raised and [term(m) for m in range(top, -1, -1)] == expected[::-1]
    finally:
        truncsym.clear_caches()


@pytest.mark.parametrize("kind", ["H", "E"])
def test_alternating_sums_match_the_kernel_convolution(kind):
    F, f = (H, "h") if kind == "H" else (E, "e")
    for n in range(1, 4):
        for s in range(2, 4):
            for m in range(9):
                expected = MPoly.zero(n)
                for j in range(m + 1):
                    expected = expected + (-1) ** j * classical(f, j, n) * F(m - j, s - 1, n)
                assert identities._term(m, identities._alt_sums, kind, n, s) == expected, (n, m, s)


@pytest.mark.parametrize("basis", ["e", "h", "p"])
def test_roots_sums_match_the_per_monomial_cyclotomic_sum(basis):
    for n in range(1, 4):
        for s in range(1, 5):
            for k in range(7):
                got, expected = identities._roots_sum(k, s, basis, n), sum_oracle.roots_sum(k, s, basis, n)
                assert got == expected, (basis, n, k, s)
                assert (str(got), got.to_json()) == (str(expected), expected.to_json())


def test_a_count_off_the_gcd_classes_raises_and_fails_the_point(monkeypatch):
    # multiplying the slots by a unit mod s+1 permutes the arrangements; a slot count that lost one breaks that
    real = symfun._per_power

    def lose_one(lam, s):  # the walk drops one arrangement at its first power that has any
        counts = real(lam, s)
        counts[next(r for r, c in enumerate(counts) if c)] -= 1
        return counts

    truncsym.clear_caches()
    H(3, 2, 2)  # the roots_H point's other side, built without the slot count
    monkeypatch.setattr(symfun, "_per_power", lose_one)
    try:
        with pytest.raises(ArithmeticError, match=r"m_lambda_at_roots\(\(2, 1\), s=2\)"):
            symfun.m_lambda_at_roots((2, 1), 2)
        report = verify("roots_H", n=2, k=3, s=2)
    finally:
        truncsym.clear_caches()
    assert not report.holds and report.rhs == ""
    assert report.lhs.startswith("error: ArithmeticError: m_lambda_at_roots((2, 1), s=2)"), report.lhs


# The coefficient of lam in each rule, as the partition-sum checks built it at every point before the
# tables: (-1)^l times the multinomial of lam (inv_*), that over l = len(lam) (pk_from_*, P_from_*,
# scalar_c), 1/z_lam (H_from_P) and (-1)^l / z_lam (E_from_P).
def _multinomial(lam):
    return truncsym.multinomial(truncsym.multiplicities(lam).values())


PER_POINT = {
    "mult": lambda lam: (-1) ** len(lam) * _multinomial(lam),
    "weight": lambda lam: Fraction((-1) ** len(lam) * _multinomial(lam), len(lam)),
    "z": lambda lam: 1 / Fraction(sum_oracle.z(lam)),
    "signed_z": lambda lam: (-1) ** len(lam) / Fraction(sum_oracle.z(lam)),
}


@pytest.mark.parametrize("rule", sorted(PER_POINT))
def test_each_coefficient_table_holds_the_per_point_coefficients(rule):
    for k in range(rule == "weight", 9):  # 1/len(lam) needs k >= 1
        coefs = [PER_POINT[rule](lam) for lam in truncsym.enum_partitions(k)]
        scale, rows = identities._coef_table(rule, k)
        assert [lam for lam, _ in rows] == truncsym.enum_partitions(k)
        assert all(type(num) is int for _, num in rows) and [Fraction(num, scale) for _, num in rows] == coefs
        assert scale == lcm(*[Fraction(c).denominator for c in coefs]), (rule, k)  # the least common denominator
        assert [identities._coef(rule, lam) for lam, _ in rows] == coefs
    truncsym.clear_caches()


# The (rule, c(k)) pairs of the partition-sum checks, and one rule over lam_1 + 1 whose
# denominators are coprime to others, so its least common multiple exceeds the largest.
PARTITION_COEFS = {
    "int": ("mult", lambda k: (-1) ** k),  # inv_*
    "weight": ("weight", lambda k: -1),  # pk_from_H
    "scaled": ("weight", lambda k: k * (-1) ** k),  # P_from_E
    "one_over_z": ("z", lambda k: 1),  # H_from_P
    "signed_z": ("signed_z", lambda k: (-1) ** k),  # E_from_P
    "coprime": ("coprime", lambda k: 1),
}


@pytest.mark.parametrize("coef", sorted(PARTITION_COEFS))
@pytest.mark.parametrize("kind", ["E", "H", "P"])
def test_partition_sums_match_the_polynomial_adds(kind, coef, monkeypatch):
    rules = dict(PER_POINT, coprime=lambda lam: Fraction(len(lam), lam[0] + 1))
    real = identities._coef  # the package's rules, and the coprime one of this test
    monkeypatch.setattr(identities, "_coef", lambda rule, lam: rules[rule](lam) if rule == "coprime" else real(rule, lam))
    rule, c = PARTITION_COEFS[coef]
    truncsym.clear_caches()
    try:
        for n in range(1, 4):
            for s in range(1, 4):
                # P_lam and 1/len(lam) need k >= 1
                for k in range(0 if coef in ("int", "one_over_z", "signed_z") and kind != "P" else 1, 9):
                    got = identities._partition_sum(kind, k, s, n, rule, c(k))
                    expected = sum_oracle.partition_sum(kind, k, s, n, lambda lam: c(k) * rules[rule](lam))
                    assert got == expected, (kind, coef, n, k, s)
                    assert (str(got), got.to_json()) == (str(expected), expected.to_json())
                    # integral scaled coefficients (inv_*, P_from_*) give a sum with int coefficients
                    if all(Fraction(c(k) * rules[rule](lam)).denominator == 1 for lam in truncsym.enum_partitions(k)):
                        assert {type(v) for v in got.terms.values()} <= {int}, (kind, coef, n, k, s)
    finally:
        truncsym.clear_caches()
