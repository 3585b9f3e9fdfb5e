"""Per-layer tracing of truncsym from outside the package.

``Tracer.install`` wraps the public functions of every layer module where
the consuming modules bind them (``identities.E``, ``symfun.E``,
``identities.accumulate_product``, ...) and the public and arithmetic
methods of the layers' classes (``MPoly.__mul__``, ``CycInt.__add__``,
...).  Each wrapped call is a span (id, parent, name, op, start, end) kept
in memory; ``write_spans`` writes them out when the run ends.  A span's
self time is its duration minus the time of its child spans, summed per
layer; the counters for the per-layer metrics are taken at the same
wrappers.  A wrapper's own work (its clock reads, counters and span
record) is kept out of both the span and its parent: it is charged to
the ``trace`` category and reported, with the stack sampler's own time,
as ``trace.own_s``.

``StackSampler`` checks that accounting from the other side.  It samples
the Python stack on a wall-clock timer and charges each sample to the
innermost frame that runs a public function of a layer, found by code
object rather than by binding.  A layer whose calls escape their wrappers
(a layer left out, or a function reached through a binding the tracer did
not rebind) then gets samples but no span time, and the two shares part.

Nothing in the package is edited: uninstalling restores every binding.
"""

from __future__ import annotations

import dis
import gzip
import itertools
import signal
import sys
import time
from math import comb
from types import FunctionType

import speed

LAYERS = (
    "multipoly",
    "symfun",
    "identities",
    "partitions",
    "combinatorics",
    "bisnomial",
    "exactalg",
    "cli",
)

# Dunder methods that are operations of a layer; the rest (construction,
# hashing, truth tests, repr) run inside whichever span calls them.
_OPERATOR_METHODS = frozenset(
    ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
     "__pow__", "__eq__", "__str__", "__call__"]
)
_KERNEL = frozenset(["accumulate_product", "MPoly.__mul__", "MPoly.__rmul__",
                     "TSeries.__mul__", "TSeries.inverse"])
_RENDER = frozenset(["MPoly.__str__", "MPoly.to_json"])
_MEMO = frozenset(["E", "H", "classical", "m_lambda"])
_RING_MUL = frozenset(["__mul__", "__rmul__"])
LARGE_OPERAND = 100  # terms; both operands at least this large make a "large" product
# Layer accounting; more than these means a layer is missing a wrapper.
# The largest share of the traced wall time that may lie outside every span
# (layer spans plus the harness's own time):
COVERAGE_TOLERANCE = 0.05
# The largest difference between a category's span share and its stack-sample
# share.  The samples lean towards ``trace`` where wrapped calls are dense: with
# every wrapper in place the gap was 0.001-0.036 on the four workloads and up to
# 0.052 on the self-tests' ops (about 400k wrapped calls a second); with one
# layer's wrappers left out it was 0.12-0.35.
SAMPLE_GAP_TOLERANCE = 0.08
SAMPLE_INTERVAL_S = 0.001  # wall time between stack samples

# Self-time categories: the layer name, split further where a metric needs it.
_CATEGORIES = ("multipoly.kernel", "multipoly.render", "multipoly", "symfun.cold", "symfun",
               "identities", "partitions", "combinatorics", "bisnomial", "exactalg", "cli",
               "bench", "trace")
# Categories compared with the stack samples: every layer, the wrappers, the harness.
ACCOUNTS = (*LAYERS, "trace", "bench")


def _hashable(args: tuple) -> tuple:
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = ["bench.op"]
        self.spans: list[tuple] = []
        self.op = -1
        self.own_s = 0.0  # harness time outside spans (output digests)
        self._ids = itertools.count()
        self._root = [-1, 0.0]
        self._stack = [self._root]
        self._seen: set = set()
        self._restore: list[tuple] = []
        self.cat_self = dict.fromkeys(_CATEGORIES, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.count = dict.fromkeys(
            ["kernel_calls", "term_pairs", "large_pairs", "terms_out", "memo_calls",
             "memo_hits", "sym_terms_out", "points", "failed_points", "items_out",
             "objects_out", "candidates", "ring_mults"], 0)
        self.slowest_point_s = 0.0

    def reset(self) -> None:
        """Forget spans and counters (not the seen arguments): the timed pass starts.

        The counter dicts are zeroed in place because the wrappers hold them.
        """
        self.spans.clear()
        self._root[1] = 0.0
        self.own_s = 0.0
        self.slowest_point_s = 0.0
        for table in (self.cat_self, self.calls, self.count):
            for key in table:
                table[key] = 0

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        """A span-recording stand-in for fn, with the counters its name calls for."""
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        spans, stack, ids, cat_self, calls = (
            self.spans, self._stack, self._ids, self.cat_self, self.calls)
        clock = time.perf_counter
        tracer = self
        pre = post = None
        category = layer
        method = name.rpartition(".")[2]
        if name in _KERNEL:
            category = "multipoly.kernel"
            if name == "accumulate_product":
                pre, post = _acc_pre, _acc_post
            elif name.startswith("MPoly"):
                post = _mul_post
            else:
                post = _count_kernel
        elif name in _RENDER:
            category = "multipoly.render"
        elif layer == "symfun":
            pre = _memo_pre(name) if name in _MEMO else _cold_pre(name)
            post = _symfun_post
        elif layer == "identities" and name == "verify":
            post = _verify_post
        elif layer == "partitions":
            post = _items_post
        elif layer == "combinatorics" and name in ("enum_paths", "enum_tilings"):
            post = _objects_post
        elif layer == "exactalg" and method in _RING_MUL and "." in name:
            post = _ring_post

        def wrapper(*args, **kwargs):
            te = clock()
            cat, token = pre(tracer, args) if pre is not None else (category, None)
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            returned = False
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                returned = True
                return res
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                cat_self[cat] += d - frame[1]
                calls[layer] += 1
                spans.append((frame[0], parent[0], nid, tracer.op, t0, t1))
                if returned and post is not None:
                    post(tracer, args, res, d, token)
                # the parent's child time covers the wrapper; the wrapper's own part is trace
                tx = clock()
                parent[1] += tx - te
                cat_self["trace"] += tx - te - d

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def own(self, fn, *args):
        """Run harness code as a ``bench`` span (its self time is the harness's own)."""
        frame = [next(self._ids), 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent[1] += t1 - t0
            self.cat_self["bench"] += (t1 - t0) - frame[1]
            self.spans.append((frame[0], parent[0], 0, self.op, t0, t1))

    def install(self, layers=LAYERS) -> None:
        """Wrap the public functions and methods of the given layer modules."""
        modules = {layer: sys.modules[f"truncsym.{layer}"] for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer in layers:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
                elif callable(value) and getattr(value, "__module__", None) == mod.__name__:
                    wrappers[id(value)] = self._wrap(value, layer, attr)
        # The originals stay alive (in the modules, then in _restore), so ids stay unique.
        for mod in [sys.modules["truncsym"], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        done: dict[int, object] = {}
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATOR_METHODS:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                inner = self._wrap(member.__func__, layer, f"{cls.__name__}.{attr}")
                wrapped = type(member)(inner)
            elif isinstance(member, FunctionType):
                # aliases such as ``__rmul__ = __mul__`` share one span name
                wrapped = done.get(id(member))
                if wrapped is None:
                    wrapped = self._wrap(member, layer, f"{cls.__name__}.{attr}")
                    done[id(member)] = wrapped
            else:
                continue
            self._restore.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------------

    def covered_s(self) -> float:
        """Time inside top-level spans plus the harness's own time outside them."""
        return self._root[1] + self.own_s

    def account_shares(self, wall_s: float) -> dict:
        """Each of ACCOUNTS as a share of wall_s; ``bench`` takes what the others leave."""
        cat = self.cat_self
        shares = {layer: cat[layer] / wall_s for layer in LAYERS}
        shares["multipoly"] += (cat["multipoly.kernel"] + cat["multipoly.render"]) / wall_s
        shares["symfun"] += cat["symfun.cold"] / wall_s
        shares["trace"] = cat["trace"] / wall_s
        shares["bench"] = 1.0 - sum(shares.values())
        return shares

    def metrics(self, wall_s: float, samples: dict | None = None) -> dict:
        """The per-layer metrics of the timed pass (see BENCHMARK.json).

        samples are the seconds a StackSampler charged over the same pass;
        without them ``bench.sample_gap`` is 0.
        """
        c, cat = self.count, self.cat_self
        layer_self = {layer: cat[layer] for layer in LAYERS}
        layer_self["multipoly"] += cat["multipoly.kernel"] + cat["multipoly.render"]
        layer_self["symfun"] += cat["symfun.cold"]
        pairs = c["term_pairs"]
        own = cat["bench"] + self.own_s
        uncovered = wall_s - self.covered_s()
        gap = sample_gap(self.account_shares(wall_s), samples) if samples else 0.0
        out = {
            "multipoly.kernel_calls": c["kernel_calls"],
            "multipoly.term_pairs": pairs,
            "multipoly.terms_out": c["terms_out"],
            "multipoly.kernel_self_s": cat["multipoly.kernel"],
            "multipoly.ns_per_pair": _ratio(cat["multipoly.kernel"] * 1e9, pairs),
            "multipoly.merge_ratio": _ratio(c["terms_out"], pairs),
            "multipoly.large_pair_share": _ratio(c["large_pairs"], pairs),
            "multipoly.render_self_s": cat["multipoly.render"],
            "multipoly.self_s": layer_self["multipoly"],
            "symfun.calls": self.calls["symfun"],
            "symfun.hit_ratio": _ratio(c["memo_hits"], c["memo_calls"]),
            "symfun.cold_self_s": cat["symfun.cold"],
            "symfun.terms_out": c["sym_terms_out"],
            "symfun.self_s": layer_self["symfun"],
            "identities.points": c["points"],
            "identities.failed": c["failed_points"],
            "identities.self_s": layer_self["identities"],
            "identities.slowest_point_s": self.slowest_point_s,
            "partitions.calls": self.calls["partitions"],
            "partitions.items_out": c["items_out"],
            "partitions.self_s": layer_self["partitions"],
            "combinatorics.calls": self.calls["combinatorics"],
            "combinatorics.objects_out": c["objects_out"],
            "combinatorics.self_s": layer_self["combinatorics"],
            "combinatorics.candidates": c["candidates"],
            "combinatorics.yield": _ratio(c["objects_out"], c["candidates"]),
            "bisnomial.calls": self.calls["bisnomial"],
            "bisnomial.self_s": layer_self["bisnomial"],
            "exactalg.ring_mults": c["ring_mults"],
            "exactalg.self_s": layer_self["exactalg"],
            "cli.self_s": layer_self["cli"],
            "bench.own_s": own,
            "bench.uncovered_share": _ratio(uncovered, wall_s),
            "bench.sample_gap": gap,
            "trace.spans": len(self.spans),
            "trace.own_s": cat["trace"],
        }
        return out

    def write_spans(self, path: str, t_base: float) -> None:
        """Spans as gzipped TSV, times in microseconds from t_base."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\top\tstart_us\tend_us\n")
            names = self.names
            for sid, parent, nid, op, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{names[nid]}\t{op}\t"
                         f"{(t0 - t_base) * 1e6:.1f}\t{(t1 - t_base) * 1e6:.1f}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sample_gap(span_shares: dict, samples: dict) -> float:
    """Largest difference, over ACCOUNTS, between span share and sample share.

    samples are the seconds a StackSampler charged to each of ACCOUNTS.
    """
    total = sum(samples.values())
    if not total:
        return 0.0
    return max(abs(span_shares[name] - samples[name] / total) for name in ACCOUNTS)


# -- stack sampling --------------------------------------------------------------------


def _public_codes() -> dict:
    """code object -> layer, for every function the tracer is meant to wrap.

    The same choice as ``Tracer.install`` (public functions, public and
    operator methods) but taken from the functions' code, so it holds
    however the functions are bound or reached.
    """
    codes = {}
    for layer in LAYERS:
        mod = sys.modules[f"truncsym.{layer}"]
        for attr, value in vars(mod).items():
            value = _unwrapped(value)
            if attr.startswith("_"):
                continue
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    if name.startswith("_") and name not in _OPERATOR_METHODS:
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    member = _unwrapped(member)
                    if isinstance(member, FunctionType):
                        codes[member.__code__] = layer
            elif isinstance(value, FunctionType) and value.__module__ == mod.__name__:
                codes[value.__code__] = layer
    return codes


def _unwrapped(fn):
    """fn without its wrappers: the tracer's, and ``functools.lru_cache``'s."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


_RESUME = dis.opmap["RESUME"]


def _resume_offset(code) -> int:
    """Offset of the instruction where a call of code starts to run."""
    raw = code.co_code
    for offset in range(0, len(raw), 2):
        if raw[offset] == _RESUME:
            return offset
    return 0


def _nested_codes(code) -> list:
    out = [code]
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            out.extend(_nested_codes(const))
    return out


class StackSampler:
    """Charges the wall time between stack samples to ACCOUNTS, one sample at a time.

    A sample goes to the innermost frame that runs either a layer's public
    function (its layer) or the tracer's wrapper and counter code
    (``trace``); a stack with neither is the harness's (``bench``).  That is
    the rule the span self times follow, taken from the stack instead of
    from the wrappers.

    The interpreter runs a signal handler only at certain instructions: the
    start of every Python call, and the end of a call into C.  So a sample
    is weighted by the wall time since the one before it: a timer tick that
    fell inside a long C call, and the ticks it swallowed, all go to the
    frame that made the call.  A sample taken at the start of a call belongs
    to the caller, whose work the signal arrived during, so a frame that has
    not passed its first instruction is skipped.  A wrapper frame that
    stands at its call of the wrapped function has just returned from it:
    when that function is C code (an ``lru_cache`` hit, say), the sample is
    the wrapped layer's.

    The handler also takes the traced pass's speed probes, one every
    ``speed.INTERVAL_S``.  Its own time, probes included, is kept out of the
    span it interrupts: it counts as that span's child time and goes to
    ``trace``, in the spans and in the samples alike.  When it interrupts a
    wrapper's own work, the wrapper's clock reads already charge it to
    ``trace``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.codes = _public_codes()
        trace_fns = [Tracer._wrap, _acc_pre, _acc_post, _mul_post, _count_kernel,
                     _memo_pre, _cold_pre, _symfun_post, _verify_post, _items_post,
                     _objects_post, _ring_post, _hashable]
        for fn in trace_fns:
            for code in _nested_codes(fn.__code__):
                self.codes[code] = "trace"
        self.seconds = dict.fromkeys(ACCOUNTS, 0.0)
        self.probes: list[float] = []
        self.probe_s = 0.0  # time spent in probes while the timer ran
        self._last = self._next_probe = 0.0
        self._busy = False
        self._resume: dict = {}
        self._old_handler = None
        self._wrapper = next(c for c in _nested_codes(Tracer._wrap.__code__)
                             if c.co_name == "wrapper")
        self._wrapper_call = next(ins.offset for ins in dis.get_instructions(self._wrapper)
                                  if ins.opname == "CALL_FUNCTION_EX")

    def _account(self, frame) -> str:
        codes = self.codes
        resume = self._resume.get(frame.f_code)
        if resume is None:
            resume = self._resume[frame.f_code] = _resume_offset(frame.f_code)
        if frame.f_lasti <= resume and frame.f_back is not None:
            frame = frame.f_back
        while frame is not None:
            account = codes.get(frame.f_code)
            if account is not None:
                if frame.f_code is self._wrapper and frame.f_lasti == self._wrapper_call:
                    return frame.f_locals["layer"]
                return account
            frame = frame.f_back
        return "bench"

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick during this handler's own probe: the next sample counts it
            return
        self._busy = True
        t_in = time.perf_counter()
        account = self._account(frame)
        self.seconds[account] += t_in - self._last
        if t_in >= self._next_probe:
            t_probe = time.perf_counter()
            self.probes.append(speed.probe())
            self.probe_s += time.perf_counter() - t_probe
            self._next_probe = t_in + speed.INTERVAL_S
        t_out = time.perf_counter()
        own = t_out - t_in
        if account != "trace":
            # inside a span's own work; in a wrapper's, the wrapper charges trace itself
            self.tracer._stack[-1][1] += own
            self.tracer.cat_self["trace"] += own
        self.seconds["trace"] += own
        self._last = t_out
        self._busy = False

    def start(self) -> None:
        self.seconds = dict.fromkeys(ACCOUNTS, 0.0)
        self.probes = [speed.probe() for _ in range(speed.START_PROBES)]
        self.probe_s = 0.0
        self._last = time.perf_counter()
        self._next_probe = self._last + speed.INTERVAL_S
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> dict:
        """Seconds charged to each of ACCOUNTS."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return dict(self.seconds)


# -- counter hooks ---------------------------------------------------------------------


def _acc_pre(tracer: Tracer, args: tuple) -> tuple:
    return "multipoly.kernel", len(args[0])


def _acc_post(tracer: Tracer, args: tuple, res, d: float, before: int) -> None:
    acc, a, b = args[0], args[1], args[2]
    c = tracer.count
    c["kernel_calls"] += 1
    scalar = args[3] if len(args) > 3 else 1
    if scalar:
        na, nb = len(a.terms), len(b.terms)
        c["term_pairs"] += na * nb
        if na >= LARGE_OPERAND and nb >= LARGE_OPERAND:
            c["large_pairs"] += na * nb
    c["terms_out"] += len(acc) - before


def _mul_post(tracer: Tracer, args: tuple, res, d: float, token) -> None:
    c = tracer.count
    c["kernel_calls"] += 1
    if res is NotImplemented:
        return
    na = len(args[0].terms)
    other = args[1]
    nb = len(other.terms) if hasattr(other, "terms") else 1
    c["term_pairs"] += na * nb
    if na >= LARGE_OPERAND and nb >= LARGE_OPERAND:
        c["large_pairs"] += na * nb
    c["terms_out"] += len(res.terms)


def _count_kernel(tracer: Tracer, args: tuple, res, d: float, token) -> None:
    tracer.count["kernel_calls"] += 1


def _memo_pre(name: str):
    def pre(tracer: Tracer, args: tuple) -> tuple:
        key = (name, _hashable(args))
        c = tracer.count
        c["memo_calls"] += 1
        if key in tracer._seen:
            c["memo_hits"] += 1
            return "symfun", False
        tracer._seen.add(key)
        return "symfun.cold", True

    return pre


def _cold_pre(name: str):
    def pre(tracer: Tracer, args: tuple) -> tuple:
        key = (name, _hashable(args))
        if key in tracer._seen:
            return "symfun", False
        tracer._seen.add(key)
        return "symfun.cold", True

    return pre


def _symfun_post(tracer: Tracer, args: tuple, res, d: float, cold: bool) -> None:
    if cold and hasattr(res, "terms"):
        tracer.count["sym_terms_out"] += len(res.terms)


def _verify_post(tracer: Tracer, args: tuple, res, d: float, token) -> None:
    c = tracer.count
    c["points"] += 1
    if not res.holds:
        c["failed_points"] += 1
    if d > tracer.slowest_point_s:
        tracer.slowest_point_s = d


def _items_post(tracer: Tracer, args: tuple, res, d: float, token) -> None:
    if isinstance(res, list):
        tracer.count["items_out"] += len(res)


def _objects_post(tracer: Tracer, args: tuple, res, d: float, token) -> None:
    n, k = args[0], args[1]
    tracer.count["candidates"] += comb(k + n - 1, k)
    tracer.count["objects_out"] += len(res)


def _ring_post(tracer: Tracer, args: tuple, res, d: float, token) -> None:
    tracer.count["ring_mults"] += 1
