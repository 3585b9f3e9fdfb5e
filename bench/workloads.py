"""Workload definitions: seeded op lists (parent side) and op execution (child side).

An op is a JSON list whose first element names its kind:

* ``["cli", argv...]``: one ``truncsym.cli.run(argv)`` call; its stdout is
  the op's output and a nonzero exit code fails it.
* ``["partitions", k, max_part, max_length, mod01]``: ``enum_partitions``.
* ``["mroots", k, s]``: ``m_lambda_at_roots(lam, s)`` for every lam of k.
* ``["fuzz", n, s, k, lam]``: the structural checks of the property fuzz
  at one point (lam is ``None`` when k is 0).

The op's key (``op_key``) names the golden sha256 of its output, so the
check does not depend on the order a seed puts the ops in.  This module
imports nothing from truncsym at import time: the parent builds op lists
without loading the package, and the child binds layer functions through
their modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("verify_sweep", "expand_large", "count_enumerate", "fuzz_warm")

# The registry at the seed commit, in registry order.  A rename in the
# program shows up as a failing op, not as a silently smaller sweep.
IDENTITIES = (
    "ortho", "inv_H", "inv_E", "newton_E", "newton_H", "newton_P", "cubic_E",
    "cubic_H", "pk_from_E", "pk_from_H", "P_from_E", "P_from_H", "scalar_c",
    "H_from_P", "E_from_P", "rec_H", "rec_E", "roots_H", "roots_E",
    "conj_bridge", "conv_H", "conv_E", "conv_roots_h", "conv_roots_e",
    "mroots_closed_k1", "mroots_closed_k", "mroots_closed_km1", "powsub_h",
    "powsub_e", "vanish_h", "vanish_e", "mono_H", "mono_bridge",
)

_JSON = ["--format", "json", "--deterministic"]

EXPAND_LARGE = (
    ["expand", "--kind", "H", "--k", "12", "--s", "3", "--n", "8"],
    ["expand", "--kind", "E", "--k", "1", "--s", "4", "--n", "8"],
    ["expand", "--kind", "E", "--k", "12", "--s", "3", "--n", "8"],
    ["schur", "--lambda", "2,1", "--s", "2", "--n", "7"],
    ["schur", "--lambda", "3,2,1", "--s", "2", "--n", "6"],
)


def _objects(verb: str, model: str, n: int, k: int, s: int, fmt: str) -> list[str]:
    return [verb, "--model", model, "--n", str(n), "--k", str(k), "--s", str(s),
            "--format", fmt, "--deterministic"]


def _table(flavor: str, n: int, s: int, fmt: str) -> list[str]:
    return ["bisnomial", "--table", "--flavor", flavor, "--n", str(n), "--s", str(s),
            "--format", fmt, "--deterministic"]


COUNT_CLI = (
    _objects("paths", "E", 7, 10, 3, "json"),
    _objects("paths", "H", 6, 10, 2, "text"),
    _objects("paths", "E", 7, 14, 1, "json"),  # no admissible path: pure enumeration cost
    _objects("tilings", "E", 6, 10, 2, "csv"),
    _objects("tilings", "H", 7, 9, 1, "json"),
    _objects("tilings", "H", 5, 8, 3, "svg"),
    _table("pq", 16, 4, "json"),
    _table("pq", 16, 4, "csv"),
    _table("q", 20, 4, "json"),
    _table("q", 20, 4, "csv"),
    _table("plain", 60, 6, "json"),
    _table("plain", 60, 6, "csv"),
)

COUNT_PARTITIONS = (
    (36, None, None, None),
    (36, 9, 6, None),
    (36, None, None, 4),
)

FUZZ_POINTS = 10_000


def partitions_of(k: int) -> list[tuple[int, ...]]:
    """Partitions of k, reverse lexicographic.

    A twin of ``enum_partitions``, so that the fuzz points a seed draws do
    not depend on the program under test.
    """

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for part in range(min(cap, rest), 0, -1):
            for tail in gen(rest - part, part):
                yield (part,) + tail

    return list(gen(k, k))


def make_ops(workload: str, seed: int, pass_index: int = 0) -> list[list]:
    """The op list of one pass: fixed per workload, ordered (and for the fuzz drawn) by seed.

    Each pass of a run gets its own order, so that a run's medians average
    over orders instead of resting on the one a seed happens to pick.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "verify_sweep":
        names = list(IDENTITIES)
        rng.shuffle(names)
        return [["cli", "verify", "--id", name, *_JSON] for name in names + ["conversions"]]
    if workload == "expand_large":
        ops = [["cli", *argv, *_JSON] for argv in EXPAND_LARGE]
        rng.shuffle(ops)
        return ops
    if workload == "count_enumerate":
        ops = [["cli", *argv] for argv in COUNT_CLI]
        ops += [["partitions", *args] for args in COUNT_PARTITIONS]
        ops += [["mroots", k, s] for k in range(11) for s in range(1, 7)]
        rng.shuffle(ops)
        return ops
    if workload == "fuzz_warm":
        ops = []
        for _ in range(FUZZ_POINTS):
            n = rng.randint(1, 4)
            s = rng.randint(1, 4)
            k = rng.randint(0, min(s * n, 8))
            lam = list(rng.choice(partitions_of(k))) if k >= 1 else None
            ops.append(["fuzz", n, s, k, lam])
        return ops
    raise ValueError(f"unknown workload: {workload!r}")


def all_fuzz_ops() -> list[list]:
    """Every fuzz op a seed can draw; the golden file covers each of them."""
    ops = []
    for n in range(1, 5):
        for s in range(1, 5):
            for k in range(min(s * n, 8) + 1):
                lams = [list(lam) for lam in partitions_of(k)] if k >= 1 else [None]
                ops.extend(["fuzz", n, s, k, lam] for lam in lams)
    return ops


def op_key(op: list) -> str:
    return " ".join(map(str, op))


def point_key(n: int, s: int, k: int) -> str:
    return f"point {n} {s} {k}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- child side ------------------------------------------------------------------


def _module(name: str):
    # truncsym/__init__ rebinds some submodule names (e.g. ``bisnomial``) to
    # functions, so submodules are looked up through sys.modules.  The lookup
    # is made per call so that the tracer's rebound names are the ones used.
    return sys.modules["truncsym." + name]


class _Capture:
    """stdout stand-in that keeps references to what was written."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _run_cli(argv: list[str]) -> str:
    cli = _module("cli")
    out = _Capture()
    with redirect_stdout(out), redirect_stderr(_Capture()):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return "".join(out.parts)


def _run_partitions(k: int, max_part, max_length, mod01) -> str:
    parts = _module("partitions").enum_partitions(
        k, max_part=max_part, max_length=max_length, mod01=mod01
    )
    return repr(parts)


def _run_mroots(k: int, s: int) -> str:
    partitions, symfun = _module("partitions"), _module("symfun")
    lines = [f"{lam} {symfun.m_lambda_at_roots(lam, s)}" for lam in partitions.enum_partitions(k)]
    return "\n".join(lines)


def _run_fuzz(n: int, s: int, k: int, lam) -> str:
    """The structural checks of acceptance criterion 8 at one point."""
    symfun, multipoly = _module("symfun"), _module("multipoly")
    E, H, MPoly, is_symmetric = symfun.E, symfun.H, multipoly.MPoly, multipoly.is_symmetric
    Ek, Hk = E(k, s, n), H(k, s, n)
    _require(is_symmetric(Ek) and is_symmetric(Hk), "not symmetric")
    _require(Ek.is_homogeneous(k) and Hk.is_homogeneous(k), "not homogeneous")
    _require(set(Ek.terms.values()) <= {1}, "E has a coefficient other than 1")
    if lam is not None:
        mono = symfun.m_lambda(tuple(lam), n)
        _require(is_symmetric(mono) and mono.is_homogeneous(k), "m_lambda not symmetric")
    xn = MPoly.variable(n, n)
    acc, power = MPoly.zero(n), MPoly.one(n)
    for j in range(min(s, k) + 1):
        acc = acc + power * E(k - j, s, n - 1).pad(n)
        power = power * xn
    _require(acc == Ek, "E does not peel")
    acc, power, sign = MPoly.zero(n), MPoly.one(n), 1
    for j in range(min(s, k) + 1):
        acc = acc + sign * (power * H(k - j, s, n))
        power = power * xn
        sign = -sign
    _require(acc == H(k, s, n - 1).pad(n), "H does not peel")
    count = multipoly.specialize(Ek, "all-ones")
    _require(count == _module("bisnomial").bisnomial(n, k, s), "count differs from bisnomial")
    return f"{len(Ek.terms)} {len(Hk.terms)} {count}"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


_RUNNERS = {"partitions": _run_partitions, "mroots": _run_mroots, "fuzz": _run_fuzz}


def execute(op: list) -> str:
    """Run one op and return its output text; raises when the op fails."""
    if op[0] == "cli":
        return _run_cli(op[1:])
    return _RUNNERS[op[0]](*op[1:])


def point_digest(n: int, s: int, k: int) -> str:
    """Digest of E(k,s,n) and H(k,s,n), term by term."""
    symfun = _module("symfun")
    terms = [sorted(symfun.E(k, s, n).terms.items()), sorted(symfun.H(k, s, n).terms.items())]
    return digest(repr(terms))


def fill_caches(ops: list[list]) -> None:
    """Run each distinct op once (the fuzz set-up pass); failures show in the timed pass."""
    seen = set()
    for op in ops:
        key = op_key(op)
        if key in seen:
            continue
        seen.add(key)
        try:
            execute(op)
        except Exception:  # the timed pass records the failure
            pass


def run_ops(ops: list[list], golden: dict, tracer=None) -> dict:
    """Run ops in order; an op fails on an exception or an output digest mismatch.

    With a tracer, the harness code of non-CLI ops runs inside a ``bench``
    span and the digest time is added to the tracer's own time, so layer
    spans plus the harness cover the traced wall time.
    """
    clock = time.perf_counter
    failures: list[str] = []
    failed = 0
    cli_bytes = 0
    first_op_s = last_op_s = 0.0
    for index, op in enumerate(ops):
        key = op_key(op)
        t0 = clock()
        try:
            if tracer is None:
                out = execute(op)
            else:
                tracer.op = index
                out = execute(op) if op[0] == "cli" else tracer.own(execute, op)
            t_out = clock()
            ok = digest(out) == golden.get(key)
            reason = "output digest mismatch"
        except Exception as exc:  # one failing op must not stop the run
            t_out = clock()
            out, ok, reason = "", False, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.own_s += t1 - t_out
        if op[0] == "cli":
            cli_bytes += len(out)
        if index == 0:
            first_op_s = t1 - t0
        last_op_s = t1 - t0
        if not ok:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{key}: {reason}")
    return {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "cli_bytes": cli_bytes,
        "first_op_s": first_op_s,
        "last_op_s": last_op_s,
    }


def check_points(ops: list[list], golden: dict) -> tuple[int, list[str]]:
    """After the timed pass: full digests of E and H at each distinct fuzz point.

    Returns the number of points checked and the keys of those that failed.
    """
    bad = []
    points = sorted({tuple(op[1:4]) for op in ops if op[0] == "fuzz"})
    for n, s, k in points:
        key = point_key(n, s, k)
        try:
            ok = point_digest(n, s, k) == golden.get(key)
        except Exception as exc:  # reported as a failed point, not a crash
            ok = False
            key = f"{key}: {type(exc).__name__}"
        if not ok:
            bad.append(key)
    return len(points), bad


def warm_caches() -> list[str]:
    """Names of memo tables in truncsym that already hold entries.

    Scans every loaded truncsym module for module-level dicts, lists and
    sets and for ``functools.lru_cache`` functions, so it needs no
    knowledge of the private cache names.
    """
    warm = []
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("truncsym") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            if type(value) in (dict, list, set) and value and attr.startswith("_"):
                warm.append(f"{name}.{attr}")
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == name and info().currsize:
                warm.append(f"{name}.{attr}")
    return warm
