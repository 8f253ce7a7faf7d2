"""Tests of the benchmark itself; they are outside the tier-1 suite.

    python3 -m pytest perfbench -q      # from the repository root, about 1.5 min
"""

import copy
import json
import os
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3

# per workload: layer counts that must be recorded, and those that must stay 0
NONZERO = {
    "table1": ("lattice.enumerate_calls", "models.build_calls", "models.dense_calls",
               "models.matvec_calls", "eigensolver.dense_calls", "observables.label_calls",
               "observables.rdm_calls", "entanglement.wootters_calls",
               "analysis.sweep_solves", "analysis.refine_solves",
               "analysis.crossing_events"),
    "scaling16": ("lattice.enumerate_calls", "models.build_calls", "models.matvec_calls",
                  "eigensolver.lanczos_calls", "eigensolver.lanczos_matvecs",
                  "eigensolver.lanczos_restarts", "observables.label_calls",
                  "observables.rdm_calls", "entanglement.wootters_calls",
                  "analysis.sweep_solves"),
    "oneshot": ("lattice.enumerate_calls", "models.build_calls", "models.dense_calls",
                "models.matvec_calls", "eigensolver.dense_calls",
                "eigensolver.lanczos_calls", "observables.label_calls",
                "observables.rdm_calls", "observables.sumrule_dense_calls"),
}
ZERO = {
    "table1": ("eigensolver.lanczos_calls", "observables.sumrule_dense_calls"),
    "scaling16": ("eigensolver.dense_calls", "analysis.refine_solves"),
    "oneshot": ("analysis.sweep_solves", "analysis.refine_solves"),
}


@pytest.fixture(scope="module")
def traced():
    return {w: run.run_child(workloads.generate(w, SEED), trace=True, root=ROOT)
            for w in workloads.WORKLOADS}


def test_seed_fixes_the_argv_lists():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, SEED) == workloads.generate(workload, SEED)
        assert workloads.generate(workload, SEED) != workloads.generate(workload, SEED + 1)
    assert all("--threads" in argv for argv in workloads.generate("oneshot", SEED))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_spans_are_recorded(traced, workload):
    report = traced[workload]
    assert report["missing"] == []
    assert workloads.check(workload, workloads.generate(workload, SEED),
                           report["results"]) == []
    layers = report["layers"]
    assert [name for name in NONZERO[workload] if not layers[name]] == []
    assert [name for name in ZERO[workload] if layers[name]] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(traced, workload):
    plain = run.run_child(workloads.generate(workload, SEED), root=ROOT)
    assert ([workloads.strip_wall_time(text) for _, text in traced[workload]["results"]]
            == [workloads.strip_wall_time(text) for _, text in plain["results"]])


def test_missing_name_is_reported_not_raised():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        tracer = spans.Tracer(targets=(
            ("spinqpt.lattice", "enumerate_sector_renamed", "lattice.enumerate", None),
            ("spinqpt.models", "Renamed.__call__", "models.matvec", None),
        )).install()
    finally:
        sys.path.pop(0)
    assert tracer.missing == ["spinqpt.lattice.enumerate_sector_renamed",
                              "spinqpt.models.Renamed.__call__"]
    metrics, _ = tracer.summary(1.0)
    assert metrics["lattice.enumerate_calls"] == 0


def test_checks_reject_wrong_outputs():
    calls = workloads.generate("scaling16", SEED)
    good = {"payload": {"skipped": [], "entries": [
        {"n_sites": n, "location": loc, "value": -1.0}
        for n, loc in workloads.SCALING_LOCATIONS.items()]}}
    assert workloads.check("scaling16", calls, [(0, json.dumps(good))]) == []
    moved = copy.deepcopy(good)
    moved["payload"]["entries"][2]["location"] += 1e-4
    skipped = copy.deepcopy(good)
    skipped["payload"]["skipped"] = [{"n_sites": 16, "reason": "no interior minimum"}]
    for bad in (moved, skipped):
        assert len(workloads.check("scaling16", calls, [(0, json.dumps(bad))])) == 1
    assert workloads.check("scaling16", calls, [(1, "")]) == [
        "scaling --model j1j2: exit code 1"]
    assert workloads.check("scaling16", calls, [(0, "{}")])[0].endswith(
        "unreadable output (KeyError('payload'))")
