"""One benchmark child process.  Started by ``run.py``; prints one JSON line.

Modes:

* ``setup``: import qcoord and build the workload's configurations, then
  report the time from spawn to ready;
* ``ops``: set up, then run ``--count`` ops of the seeded stream closed-loop,
  one at a time; with ``--verify``, check every op after each batch outside
  the timed region.  ``--round`` picks the stream: each round of a seed has
  inputs of its own (``stream_rng``);
* ``traced``: as ``ops``, with every layer wrapped by the tracer; writes the
  spans to ``--spans`` if given;
* ``probes``: the fixed layer probes, timed untraced and then counted traced.

Every op's rendered output goes into the run's digest, verified or not, so
runs of the same ops can be compared byte for byte.

The child measures its own set-up from ``--spawned``, the parent's
``time.monotonic()`` just before the spawn (the clock is system-wide).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from array import array
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BATCH = 64


class OpError:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def import_qcoord():
    """Import qcoord from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcoord

    if Path(qcoord.__file__).resolve().parent != src / "qcoord":
        raise ImportError(f"qcoord was imported from {qcoord.__file__}, not from {src}")
    return qcoord


def count_failures(wl, items, outs, digest, first_index: int, verify: bool) -> tuple[int, str | None]:
    """Hash a batch's rendered outputs into ``digest``; return the failed
    count and the first failure's reason.

    An op fails if it raised or, when ``verify`` is set, if its output fails
    the workload's exact check.
    """
    failed = 0
    reason = None
    for index, (item, out) in enumerate(zip(items, outs), first_index):
        if isinstance(out, OpError):
            ok, why, text = False, out.message, "!error"
        else:
            try:
                ok = not verify or wl.check(item, out)
                why = None if ok else "output failed its exact check"
                text = wl.text(item, out)
            except Exception as exc:  # a crashing check is a failed op, not a crashed run
                ok, why, text = False, f"check raised {type(exc).__name__}: {exc}", "!error"
        if not ok:
            failed += 1
            if reason is None:
                reason = f"op {index}: {why}"
        digest.update(text.encode())
        digest.update(b"\n")
    return failed, reason


def stream_rng(seed: int, round_: int) -> random.Random:
    """The input stream of one round of a run: a function of the seed and the
    round only, different for every round."""
    return random.Random(f"{seed}/{round_}")


def seeded_inputs(wl, rng, count: int):
    """``count`` inputs of the seeded stream, drawn a whole cycle
    (``wl.cycle_ops``) at a time, so that every cycle has the workload's fixed
    composition."""
    while count > 0:
        items = wl.generate(rng, wl.cycle_ops)
        yield from items[:count]
        count -= len(items)


def run_stream(wl, rng, count: int, tracer=None, verify: bool = True) -> dict:
    """Closed loop over ``count`` ops of the seeded stream, one at a time;
    each batch is hashed, and verified if ``verify``, after it runs, outside
    the timed region."""
    latencies = array("d")
    failed = 0
    first_failure = None
    digest = hashlib.sha256()
    done = 0
    inputs = seeded_inputs(wl, rng, count)
    while done < count:
        items = list(islice(inputs, BATCH))
        outs = []
        for item in items:
            start = perf_counter()
            try:
                if tracer is None:
                    out = wl.op(item)
                else:
                    with tracer.op(done + len(outs)):
                        out = wl.op(item)
            except Exception as exc:  # an op that raises is counted as failed
                out = OpError(exc)
            latencies.append(perf_counter() - start)
            outs.append(out)
        bad, reason = count_failures(wl, items, outs, digest, done, verify)
        failed += bad
        first_failure = first_failure or reason
        done += len(outs)
    return {
        "latencies": latencies,
        "busy_s": sum(latencies),
        "attempted": done,
        "failed": failed,
        "first_failure": first_failure,
        "digest": digest.hexdigest(),
        "verified": verify,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer) -> dict:
    calls, busy, own = tracer.calls, tracer.busy, tracer.self_time
    hits = tracer.cache_counts["rewrite.reduction_step.hits"]
    misses = tracer.cache_counts["rewrite.reduction_step.misses"]
    return {
        "coeff.cyclo_mul.calls": calls["coeff.cyclo_mul"],
        "coeff.cyclo_shift.calls": calls["coeff.cyclo_shift"],
        "coeff.cyclo_shift.busy_s": busy["coeff.cyclo_shift"],
        "coeff.laurent_mul.calls": calls["coeff.laurent_mul"],
        "coeff.reduce_mod.calls": calls["coeff.reduce_mod"],
        "coeff.invert_unit.calls": calls["coeff.invert_unit"],
        "rewrite.straighten.calls": calls["rewrite.straighten"],
        "rewrite.straighten.self_s": own["rewrite.straighten"],
        "rewrite.straighten.swaps": tracer.extra["rewrite.straighten.swaps"],
        "rewrite.straighten.qshifts": calls["rewrite.straighten.qshifts"],
        "rewrite.straighten.branches": calls["rewrite.straighten.branches"],
        "rewrite.multiply.calls": calls["rewrite.multiply"],
        "rewrite.multiply.busy_s": busy["rewrite.multiply"],
        "rewrite.enforce.calls": calls["rewrite.enforce"],
        "rewrite.enforce.self_s": own["rewrite.enforce"],
        "rewrite.reduction_step.calls": calls["rewrite.reduction_step"],
        "rewrite.reduction_step.self_s": own["rewrite.reduction_step"],
        "rewrite.reduction_step.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rewrite.reduction_step.cache_entries": tracer.cache_entries("rewrite.reduction_step"),
        "rootspec.module_expand.calls": calls["rootspec.module_expand"],
        "rootspec.module_expand.self_s": own["rootspec.module_expand"],
        "frobext.phi.calls": calls["frobext.phi"],
        "frobext.phi.self_s": own["frobext.phi"],
        "frobext.nakayama.calls": calls["frobext.nakayama"],
        "frobext.nakayama.self_s": own["frobext.nakayama"],
        "render.element.calls": calls["render.element"],
        "render.element.self_s": own["render.element"],
        "render.classical.calls": calls["render.classical"],
        "render.classical.self_s": own["render.classical"],
    }


# Probe count -> the per-layer metric whose entry point counts it.
PROBE_SOURCES = {
    "swaps": "rewrite.straighten.swaps",
    "qshifts": "rewrite.straighten.qshifts",
    "branches": "rewrite.straighten.branches",
    "cyclo_mul": "coeff.cyclo_mul.calls",
    "reduction_steps": "rewrite.reduction_step.hit_ratio",
}


def run_probes(reps: int) -> tuple[dict, dict]:
    """Probe times and counts, and the probe counts that are absent (with
    the reason) because their entry point is gone."""
    import probes
    import tracer as tracing

    thunks = probes.build()
    out = {}
    absent = {}
    for name, thunk in thunks:
        times = []
        for _ in range(reps):
            probes.clear_caches()
            start = perf_counter()
            result = thunk()
            times.append(perf_counter() - start)
        out[name] = {"ms": 1000 * statistics.median(times), "terms": len(result)}

    for name, thunk in thunks:
        t = tracing.Tracer()
        probes.clear_caches()
        tracing.install(t)
        try:
            with t.op(0):
                thunk()
        finally:
            t.restore()
        counts = {
            "swaps": t.extra["rewrite.straighten.swaps"],
            "qshifts": t.calls["rewrite.straighten.qshifts"],
            "branches": t.calls["rewrite.straighten.branches"],
            "cyclo_mul": t.calls["coeff.cyclo_mul"],
            "reduction_steps": t.cache_counts["rewrite.reduction_step.misses"],
        }
        out[name].update((key, counts[key]) for key in probes.COUNTS[name])
        missing = t.absent()
        absent.update(
            (f"probe.{name}.{key}", missing[PROBE_SOURCES[key]])
            for key in probes.COUNTS[name]
            if PROBE_SOURCES[key] in missing
        )
    return out, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "ops", "traced", "probes"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--count", type=int)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    import_qcoord()
    if args.mode == "probes":
        probe, absent = run_probes(args.reps)
        print(json.dumps({"probes": probe, "absent": absent}))
        return 0

    wl = WORKLOADS[args.workload]()
    wl.setup()
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = stream_rng(args.seed, args.round)
    report = {"setup_s": setup_s}
    if args.mode == "ops":
        stream = run_stream(wl, rng, args.count, verify=args.verify)
    else:
        import tracer as tracing

        t = tracing.Tracer()
        tracing.install(t)
        stream = run_stream(wl, rng, args.count, tracer=t, verify=args.verify)
        t.restore()
        report["layers"] = layer_metrics(t)
        report["absent"] = t.absent()
        if args.spans:
            t.write_spans(args.spans)
        report["spans"] = len(t.spans)

    report.update(stream)
    report["latencies"] = list(stream["latencies"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
