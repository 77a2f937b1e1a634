"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest benchmarks/test_bench.py -q

They check the traced run's layer predictions (nonzero where a workload uses
a layer, exactly zero where it bypasses it), that counts repeat exactly, that
the verifiers count corrupted outputs as failures, and the output contract.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SMALL = {"pairing": 150, "straighten": 400, "localized": 300}
ALL = set(WORKLOADS)

# Layer metric -> workloads predicted to use it.  Every other workload must
# read exactly 0 (NOTES.md lists the reasons).
USES = {
    "coeff.cyclo_mul.calls": {"pairing"},
    "coeff.cyclo_shift.calls": {"pairing"},
    "coeff.cyclo_shift.busy_s": {"pairing"},
    "coeff.laurent_mul.calls": {"localized"},
    "coeff.reduce_mod.calls": {"pairing"},
    "coeff.invert_unit.calls": {"localized", "pairing"},
    "rewrite.straighten.calls": ALL,
    "rewrite.straighten.self_s": ALL,
    "rewrite.straighten.swaps": ALL,
    "rewrite.straighten.qshifts": ALL,
    "rewrite.straighten.branches": ALL,
    "rewrite.multiply.calls": {"localized", "pairing"},
    "rewrite.multiply.busy_s": {"localized", "pairing"},
    "rewrite.enforce.calls": {"localized", "pairing"},
    "rewrite.enforce.self_s": {"localized", "pairing"},
    "rewrite.reduction_step.calls": {"localized", "pairing"},
    "rewrite.reduction_step.self_s": {"localized", "pairing"},
    "rewrite.reduction_step.hit_ratio": {"localized", "pairing"},
    "rewrite.reduction_step.cache_entries": {"localized", "pairing"},
    "rootspec.module_expand.calls": {"pairing"},
    "rootspec.module_expand.self_s": {"pairing"},
    "frobext.phi.calls": {"pairing"},
    "frobext.phi.self_s": {"pairing"},
    "frobext.nakayama.calls": {"pairing"},
    "frobext.nakayama.self_s": {"pairing"},
    "render.element.calls": {"localized"},
    "render.element.self_s": {"localized"},
    "render.classical.calls": {"pairing"},
    "render.classical.self_s": {"pairing"},
}


def traced_run(workload: str) -> dict:
    return run.spawn("traced", workload, SEED, "--count", str(SMALL[workload]), "--verify")


@pytest.fixture(scope="module")
def traced():
    return {w: traced_run(w) for w in WORKLOADS}


def test_predictions_cover_every_layer_metric():
    assert set(USES) == set(run.LAYERS)


@pytest.mark.parametrize("metric", sorted(USES))
def test_layer_metric_is_nonzero_where_used_and_zero_where_bypassed(traced, metric):
    for workload, result in traced.items():
        if metric in result["absent"]:
            pytest.skip(f"{metric} is absent: {result['absent'][metric]}")
        value = result["layers"][metric]
        if workload in USES[metric]:
            # Hits need a repeated reduction key, which a short run may not draw.
            assert value > 0 or metric.endswith("hit_ratio"), (workload, metric)
        else:
            assert value == 0, (workload, metric, value)


def test_traced_ops_pass_their_checks(traced):
    for workload, result in traced.items():
        assert result["attempted"] == SMALL[workload]
        assert result["failed"] == 0, result["first_failure"]


def test_traced_counts_repeat_exactly(traced):
    again = traced_run("localized")
    first = traced["localized"]
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: again["layers"][k] for k in counts}
    assert first["digest"] == again["digest"]


def test_tracing_leaves_outputs_unchanged(traced):
    plain = run.spawn("ops", "localized", SEED, "--count", str(SMALL["localized"]))
    assert plain["digest"] == traced["localized"]["digest"]


def test_no_entry_point_is_absent_on_this_code(traced):
    for result in traced.values():
        assert result["absent"] == {}


def test_missing_entry_points_are_reported_not_raised(monkeypatch):
    child.import_qcoord()
    from qcoord import coeff, rewrite

    monkeypatch.delattr(coeff.CycloRing, "shift")
    monkeypatch.delattr(coeff.LaurentRing, "qdiff_mul")
    monkeypatch.setattr(rewrite, "_reduction_step", rewrite._reduction_step.__wrapped__)
    t = tracing.Tracer()
    tracing.install(t)
    t.restore()
    absent = t.absent()
    assert set(absent) == {
        "coeff.cyclo_shift.calls", "coeff.cyclo_shift.busy_s", "rewrite.straighten.qshifts",
        "rewrite.straighten.branches",
        "rewrite.reduction_step.hit_ratio", "rewrite.reduction_step.cache_entries",
    }
    assert "partial" in absent["rewrite.straighten.qshifts"]
    assert "partial" not in absent["coeff.cyclo_shift.calls"]
    assert "cache_info" in absent["rewrite.reduction_step.cache_entries"]


def test_probe_counts_match_the_roadmap_and_repeat():
    first = run.spawn("probes", "pairing", SEED, "--reps", "1")["probes"]
    second = run.spawn("probes", "pairing", SEED, "--reps", "1")["probes"]
    assert (first["k8"]["swaps"], first["k8"]["qshifts"], first["k8"]["branches"]) == (7036, 3444, 3256)
    assert first["k8"]["terms"] == 9
    assert (first["k12"]["swaps"], first["k12"]["terms"]) == (47906, 13)
    strip = lambda probes: {p: {k: v for k, v in d.items() if k != "ms"} for p, d in probes.items()}
    assert strip(first) == strip(second)


def test_wrappers_replace_every_binding():
    child.import_qcoord()
    from qcoord import cli, detloc, frobext, rewrite, rootspec

    originals = (rewrite.multiply, rewrite._reduction_step, rootspec.module_expand)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        for module in (frobext, rootspec, detloc, cli):
            assert module.multiply is not originals[0]
        assert detloc._reduction_step is not originals[1]
        assert frobext.module_expand is not originals[2]
        for owner in tracing._qcoord_namespaces():
            for value in vars(owner).values():
                assert all(value is not o for o in originals), owner
    finally:
        t.restore()
    assert frobext.multiply is originals[0] and detloc._reduction_step is originals[1]


def _corrupt(workload: str, out):
    """A wrong output of the same shape as ``out``."""
    if workload == "pairing":
        from qcoord.rootspec import ClassicalPoly

        # Both sides equally wrong: only the check against the product sees it.
        left, right, _left_text, _right_text = out
        one = ClassicalPoly.one(right.ring, right.n)
        return left + one, right + one, str(left + one), str(right + one)
    if workload == "straighten":
        # Same wrong answer from both strategies: only the q = 1 check sees it.
        doubled = {exps: coeff * 2 for exps, coeff in out[0].items()}
        return doubled, dict(doubled)
    product, text = out
    return product + product, text


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_and_raising_ops_count_as_failed(workload):
    child.import_qcoord()
    base = WORKLOADS[workload]

    class Faulty(base):
        calls = 0

        def op(self, item):
            Faulty.calls += 1
            out = super().op(item)
            if Faulty.calls == 2:
                return _corrupt(workload, out)
            if Faulty.calls == 5:
                raise RuntimeError("injected")
            return out

    wl = Faulty()
    wl.setup()
    stream = child.run_stream(wl, random.Random(SEED), count=6)
    assert (stream["attempted"], stream["failed"]) == (6, 2)
    assert stream["first_failure"].startswith("op 1: ")
    # Unverified, only the raising op fails, but the digest still differs.
    Faulty.calls = 0
    unverified = child.run_stream(wl, random.Random(SEED), count=6, verify=False)
    assert unverified["failed"] == 1
    assert unverified["digest"] == stream["digest"]
    Faulty.calls = 100
    clean = child.run_stream(wl, random.Random(SEED), count=6, verify=False)
    assert clean["digest"] != stream["digest"]


def test_inputs_depend_only_on_the_seed_and_round():
    child.import_qcoord()
    for workload, cls in WORKLOADS.items():
        draws = []
        for seed, round_ in ((1, 0), (1, 0), (2, 0), (1, 1)):
            wl = cls()
            wl.setup()
            items = wl.generate(child.stream_rng(seed, round_), 50)
            draws.append(hashlib.sha256(repr([item[1:] for item in items]).encode()).hexdigest())
        assert draws[0] == draws[1], workload
        assert len({draws[0], draws[2], draws[3]}) == 3, workload


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_end_to_end_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "straighten", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pairing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
