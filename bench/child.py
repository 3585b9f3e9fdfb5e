"""One measured pass over a workload's ops, in the fresh interpreter it runs in.

Started by ``run.py`` as ``python3 -I bench/child.py`` with a JSON request
on stdin: the ``src`` directory to import truncsym from, the ops, their
golden digests, whether to trace, and where to write the spans.  Set-up
(imports, the CLI parser, and for the fuzz the cache-fill pass) ends at
``ready``, where a set-up-only pass stops.  The ops are timed from there.
Every pass probes the CPU speed throughout the ops (``speed.py``); a
traced pass does it from the handler that samples its stack for the
layer-accounting check (``tracer.py``), which keeps its own time out of
the spans.  The last stdout line is a JSON object with the timings, raw
and scaled, the check counts and failures, and ``ru_maxrss``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    request = json.loads(sys.stdin.read())
    src = request["src"]
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import truncsym
    import truncsym.cli  # noqa: F401  (the package does not load its CLI)

    if not os.path.abspath(truncsym.__file__).startswith(os.path.join(src, "")):
        print(f"truncsym imported from {truncsym.__file__}, not from {src}", file=sys.stderr)
        return 3
    import speed
    import workloads

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops, golden = request["ops"], request["golden"]
    problems = []
    workloads.execute(["cli", "--help"])  # builds the whole CLI parser
    warm = workloads.warm_caches()
    if warm:
        problems.append(f"caches warm before the first op: {', '.join(warm)}")
    if request["fill"]:
        workloads.fill_caches(ops)
    if tracer is not None:
        tracer.reset()
    ready_mono = time.monotonic()
    # checks: the cold state, each op, and each fuzz point's E/H digest
    checks = {"attempted": 1, "failed": len(problems), "failures": []}
    if request["setup_only"]:
        print(json.dumps(dict(checks, ready_mono=ready_mono, problems=problems)))
        return 0
    if tracer is not None:
        from tracer import StackSampler

        sampler = StackSampler(tracer)
    else:
        sampler = speed.Sampler()
    sampler.start()
    t_ready = time.perf_counter()
    result = workloads.run_ops(ops, golden, tracer)
    wall_s = time.perf_counter() - t_ready
    if tracer is not None:
        samples = sampler.stop()
        # the accounting covers the whole traced time, the sampler's included
        result["layers"] = tracer.metrics(wall_s, samples)
        pass_speed, probe_s = speed.speed(sampler.probes), sampler.probe_s
    else:
        pass_speed, probe_s = sampler.take()
        sampler.stop()
    wall_s -= probe_s
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"]["cli.bytes_out"] = result["cli_bytes"]
        tracer.uninstall()
        if request.get("spans_out"):
            tracer.write_spans(request["spans_out"], t_ready)
    points, bad_points = workloads.check_points(ops, golden)
    if bad_points:
        problems.append(f"E/H digest mismatch at {len(bad_points)} points: {bad_points[:5]}")
    result.update(
        attempted=checks["attempted"] + result["attempted"] + points,
        failed=checks["failed"] + result["failed"] + len(bad_points),
        ready_mono=ready_mono,
        wall_raw_s=wall_s,
        wall_s=wall_s * pass_speed ** speed.SENSITIVITY,
        speed=pass_speed,
        maxrss_kib=maxrss_kib,
        problems=problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
