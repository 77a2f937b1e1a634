"""qcoord benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload pairing --seed 1 --seconds 16 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 16 --trace 0

One single-threaded parent runs one child process at a time (never two at
once), closed loop, one op in flight.  Each child starts with cold caches, as
every ``qcoord`` invocation does.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the best over
several spawns of spawn-to-ready), then ``ops_per_s``, ``op_p50_ms``,
``op_tail_ms`` and ``peak_rss_mb`` over the ops of ROUNDS children, each
running inputs of its own, about ``--seconds`` of op time between them (see
``measure_end_to_end``).

``--trace 1`` reports the per-layer metrics: the same seeded stream for a fixed
op count, untraced and traced in alternation (counts must repeat exactly),
plus the fixed layer probes in a child of their own.

Every op of an end-to-end run is verified exactly.  In a traced run the first
child verifies and every child of the same ops must render byte-identical
outputs.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record with metadata goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170
ROUNDS = 8
SETUPS_PER_ROUND = 2  # setup_s is the best of ROUNDS * (SETUPS_PER_ROUND + 1) spawns
TRACE_ROUNDS = 3  # untraced/traced pairs in a traced run
TAIL_LADDER = (90.0, 99.0)

sys.path.insert(0, str(HERE))
import probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"calls": "count", "swaps": "count", "qshifts": "count", "branches": "count",
               "cache_entries": "count", "hit_ratio": "ratio"}
LAYERS = (
    "coeff.cyclo_mul.calls", "coeff.cyclo_shift.calls", "coeff.cyclo_shift.busy_s",
    "coeff.laurent_mul.calls", "coeff.reduce_mod.calls", "coeff.invert_unit.calls",
    "rewrite.straighten.calls", "rewrite.straighten.self_s", "rewrite.straighten.swaps",
    "rewrite.straighten.qshifts", "rewrite.straighten.branches",
    "rewrite.multiply.calls", "rewrite.multiply.busy_s",
    "rewrite.enforce.calls", "rewrite.enforce.self_s",
    "rewrite.reduction_step.calls", "rewrite.reduction_step.self_s",
    "rewrite.reduction_step.hit_ratio", "rewrite.reduction_step.cache_entries",
    "rootspec.module_expand.calls", "rootspec.module_expand.self_s",
    "frobext.phi.calls", "frobext.phi.self_s",
    "frobext.nakayama.calls", "frobext.nakayama.self_s",
    "render.element.calls", "render.element.self_s",
    "render.classical.calls", "render.classical.self_s",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" if name.endswith("_s") else LAYER_UNITS[name.rsplit(".", 1)[1]]
             for name in LAYERS}
    units["bench.trace_overhead"] = "ratio"
    for probe, counts in probes.COUNTS.items():
        units[f"probe.{probe}.ms"] = "ms"
        units[f"probe.{probe}.terms"] = "count"
        for count in counts:
            units[f"probe.{probe}.{count}"] = "count"
    return units


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QCOORD_THREADS", None)  # sequential engine, as by default
    env.pop("PYTHONPATH", None)  # the child imports qcoord from this checkout only
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, *extra: str) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, "-s", str(CHILD), mode, "--workload", workload,
           "--seed", str(seed), "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the highest ladder
    percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            chosen = (p, rank)
    if chosen is None:  # fewer than 100 samples: report the maximum
        return 100.0, ordered[-1], 0
    p, rank = chosen
    return p, ordered[rank - 1], n - rank


def best_per_op(streams) -> list[float]:
    """Each op's lowest latency over several runs of the same ops, which must
    have rendered identical outputs."""
    if len({s["digest"] for s in streams}) != 1:
        raise ChildFailed("runs of the same ops rendered different outputs")
    return [min(op) for op in zip(*(s.pop("latencies") for s in streams))]


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Run ROUNDS cold children, each on inputs of its own, and time every op once.

    ``seconds`` fixes the work, not a deadline: each round runs
    ``seconds / ROUNDS`` times the workload's nominal rate in ops, rounded to
    whole cycles of its composition, so the op count (and with it the tail
    sample, the cache contents and the memory) is the same whatever the
    machine's speed, and the same on both commits of a comparison.  On the
    seed code a run measures about ``seconds`` of op time.

    The metrics pool the ops of all rounds.  Each round draws inputs of its
    own (``child.stream_rng``), so the run times ROUNDS times as many
    distinct inputs as one child holds: the tail, set by a few costly inputs,
    then varies little from seed to seed.  Set-up is the best of spawns
    spread between the rounds.  (Their median followed the machine: it rose
    37% from one ten-run set to the next in a slow spell, while the best
    stayed near 0.09 s.)

    Every round verifies every op.
    """
    wl = WORKLOADS[workload]
    cycles = max(1, round(seconds * wl.nominal_ops_per_s / ROUNDS / wl.cycle_ops))
    count = str(cycles * wl.cycle_ops)
    setups = []
    rounds = []
    for k in range(ROUNDS):
        setups += [spawn("setup", workload, seed)["setup_s"] for _ in range(SETUPS_PER_ROUND)]
        rounds.append(spawn("ops", workload, seed, "--count", count, "--round", str(k), "--verify"))
        setups.append(rounds[-1]["setup_s"])
    latencies = [x for r in rounds for x in r.pop("latencies")]
    percentile, tail_value, beyond = tail(latencies)
    metrics = {
        "setup_s": min(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_value,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    run = {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "first_failure": next((f"round {k}, {r['first_failure']}" for k, r in enumerate(rounds)
                               if r["first_failure"]), None),
        "digest": hashlib.sha256(" ".join(r["digest"] for r in rounds).encode()).hexdigest(),
        "ops": len(latencies),
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "setup_samples_s": setups,
        "rounds": rounds,
    }
    return metrics, run


def measure_layers(workload: str, seed: int) -> tuple[dict, dict]:
    """TRACE_ROUNDS untraced and traced children in alternation on the same
    ops; the first verifies every op, the first traced one writes spans.

    Counts must repeat exactly across the traced children; a layer time is
    its lowest over them, and ``bench.trace_overhead`` compares each op's
    best traced latency with its best untraced one.
    """
    count = str(WORKLOADS[workload].trace_ops)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    plain, traced = [], []
    for k in range(TRACE_ROUNDS):
        verify = ("--verify",) if k == 0 else ()
        write_spans = ("--spans", str(spans)) if k == 0 else ()
        plain.append(spawn("ops", workload, seed, "--count", count, *verify))
        traced.append(spawn("traced", workload, seed, "--count", count, *write_spans))
    probe = spawn("probes", workload, seed)
    plain_best = best_per_op(plain)
    traced_best = best_per_op(traced)
    if plain[0]["digest"] != traced[0]["digest"]:
        raise ChildFailed("traced and untraced runs rendered different outputs")
    layers = [t.pop("layers") for t in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = min(values)
        elif len(set(values)) != 1:
            raise ChildFailed(f"{name} differs between traced runs of the same ops: {values}")
        else:
            metrics[name] = values[0]
    metrics["bench.trace_overhead"] = sum(traced_best) / sum(plain_best)
    for name, values in probe["probes"].items():
        for key, value in values.items():
            metrics[f"probe.{name}.{key}"] = value
    streams = plain + traced
    run = {
        "attempted": sum(s["attempted"] for s in streams),
        "failed": sum(s["failed"] for s in streams),
        "first_failure": next((s["first_failure"] for s in streams if s["first_failure"]), None),
        "digest": plain[0]["digest"],
        "absent": {**traced[0]["absent"], **probe["absent"]},
        "untraced": plain,
        "traced": traced,
        "probes": probe["probes"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, run


def metadata(workload: str, seed: int, trace: int, seconds: float, run: dict) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src/qcoord").glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "ops": run["attempted"],
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "child_env": {"QCOORD_THREADS": child_env().get("QCOORD_THREADS", "unset"),
                      "PYTHONHASHSEED": "0"},
        "src_qcoord_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, run = measure_layers(workload, seed)
        units = per_layer_units()
    else:
        metrics, run = measure_end_to_end(workload, seed, seconds)
        units = END_TO_END
    if set(metrics) != set(units):
        raise ChildFailed(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    attempted, failed = run["attempted"], run["failed"]
    record = {
        "metadata": metadata(workload, seed, trace, seconds, run),
        "op_fail_ratio": failed / attempted,
        "absent": run.get("absent", {}),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "run": run,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name in units:
        print(f"{workload:<10} {name:<40} {metrics[name]:>14.6g} {units[name]}")
    print(f"{workload:<10} {'op_fail_ratio':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for name, reason in record["absent"].items():
        print(f"{workload:<10} {name} is absent (reads 0): {reason}")
    if not trace:
        print(f"{workload:<10} op_tail_ms is p{run['tail_percentile']:g} of {run['ops']} ops "
              f"({run['tail_beyond']} beyond), {ROUNDS} cold children of distinct inputs")
    if run["first_failure"]:
        print(f"{workload:<10} first failure: {run['first_failure']}")
    print(json.dumps({"metadata": record["metadata"], "digest": run["digest"]}))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src/qcoord/__init__.py").is_file():
        print(f"error: no qcoord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["run"]["attempted"] for r in records.values())
    failed = sum(r["run"]["failed"] for r in records.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in records.items() for k, v in r["metrics"].items()}
    else:
        metrics = records[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
