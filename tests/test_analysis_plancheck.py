"""Plan-verifier tests: the seeded-bad cluster corpus and the APIs.

Each cluster spec under ``tests/fixtures/cluster/`` is named for the
one diagnostic code it must trigger — the parametrized test asserts
that code fires exactly once and nothing else does (the same contract
``tests/fixtures/graphs/`` holds for the graph verifier).  The shipped
specs under ``examples/cluster_specs/`` must verify clean.
"""

import glob
import json
import os

import pytest

from repro.analysis import (
    Severity,
    verify_cluster,
    verify_cluster_file,
    verify_descriptor,
    verify_plan,
)
from repro.cluster.spec import build_plan
from repro.core.graph import StreamProcessingGraph

HERE = os.path.dirname(__file__)
REPO = os.path.dirname(HERE)
FIXTURES = sorted(glob.glob(os.path.join(HERE, "fixtures", "cluster", "nepg*.json")))

#: Codes whose finding is advisory, not a launch-blocking error.
WARNING_CODES = {"NEPG139"}


def _expected_code(path: str) -> str:
    # nepg133_port_collision.json -> NEPG133
    return os.path.basename(path).split("_", 1)[0].upper()


@pytest.mark.parametrize("path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES])
def test_bad_fixture_fires_its_code_exactly_once(path):
    code = _expected_code(path)
    report = verify_cluster_file(path)
    assert report.count(code) == 1, report.render()
    assert len(report) == 1, f"unexpected extra findings:\n{report.render()}"
    diag = report.diagnostics[0]
    expected = Severity.WARNING if code in WARNING_CODES else Severity.ERROR
    assert diag.severity is expected
    assert diag.message


def test_fixture_corpus_covers_every_plan_code():
    covered = {_expected_code(p) for p in FIXTURES}
    assert covered == {f"NEPG{n}" for n in range(130, 140)}


def test_shipped_cluster_specs_verify_clean():
    specs = sorted(glob.glob(os.path.join(REPO, "examples", "cluster_specs", "*.json")))
    assert specs, "cluster spec corpus missing"
    for path in specs:
        report = verify_cluster_file(path)
        assert not report.diagnostics, report.render()


# ---------------------------------------------------------------------------
# NEPG122 -> NEPG136 promotion
# ---------------------------------------------------------------------------


def _unseeded_relay_descriptor():
    return {
        "name": "relay-unseeded",
        "operators": [
            {
                "name": "sender",
                "type": "source",
                "class": "repro.workloads.operators:CountingSource",
                "kwargs": {"total": 100, "payload_size": 16},
            },
            {
                "name": "relay",
                "type": "processor",
                "class": "repro.workloads.operators:RelayProcessor",
                "parallelism": 2,
            },
            {
                "name": "latency",
                "type": "processor",
                "class": "repro.workloads.operators:LatencySink",
            },
        ],
        "links": [
            {"from": "sender", "to": "relay", "partitioning": {"scheme": "shuffle"}},
            {"from": "relay", "to": "latency", "partitioning": "round-robin"},
        ],
    }


def test_unseeded_shuffle_stays_a_warning_single_process():
    # Inside one process the unseeded shuffle is merely non-reproducible:
    # NEPG122 warns and validate() still passes.
    report = verify_descriptor(_unseeded_relay_descriptor())
    assert report.count("NEPG122") == 1, report.render()
    assert not report.errors()


def test_unseeded_shuffle_promotes_to_error_across_workers():
    # The same link split across worker processes is an exactly-once
    # hazard: NEPG136 fires as an error and supersedes (suppresses) the
    # single-process NEPG122 warning for that link.
    report = verify_cluster({"descriptor": _unseeded_relay_descriptor(), "workers": 2})
    assert report.count("NEPG136") == 1, report.render()
    assert report.count("NEPG122") == 0, report.render()
    (diag,) = report.diagnostics
    assert diag.severity is Severity.ERROR
    assert "supersedes" in diag.message


def test_promotion_skips_links_hosted_on_one_worker():
    # Pin every operator onto worker 0: nothing crosses a process
    # boundary, so the warning is not promoted (workers 1.. are merely
    # idle, which is its own advisory finding).
    report = verify_cluster(
        {
            "descriptor": _unseeded_relay_descriptor(),
            "workers": 2,
            "pin": {"sender": 0, "relay": 0, "latency": 0},
        }
    )
    assert report.count("NEPG136") == 0, report.render()
    assert report.count("NEPG122") == 1
    assert report.count("NEPG139") == 1  # worker 1 hosts nothing


# ---------------------------------------------------------------------------
# verify_plan (the coordinator's gate) and spec plumbing
# ---------------------------------------------------------------------------


def _pair_graph():
    descriptor = {
        "name": "pair",
        "operators": [
            {
                "name": "sender",
                "type": "source",
                "class": "repro.workloads.operators:CountingSource",
                "kwargs": {"total": 100, "payload_size": 16},
            },
            {
                "name": "sink",
                "type": "processor",
                "class": "repro.workloads.operators:LatencySink",
            },
        ],
        "links": [{"from": "sender", "to": "sink", "partitioning": "round-robin"}],
    }
    return StreamProcessingGraph.from_descriptor(descriptor, validate_wiring=False)


def test_verify_plan_clean_deployment():
    graph = _pair_graph()
    report = verify_plan(graph, build_plan(graph, 2))
    assert not report.diagnostics, report.render()


def test_verify_plan_broken_assignment_short_circuits():
    # An unsound assignment gates the placement-dependent passes: one
    # NEPG130 per defect and nothing derived from the bogus placement.
    graph = _pair_graph()
    plan = build_plan(graph, 2)
    assignment = dict(plan.assignment)
    del assignment[("sink", 0)]
    plan = type(plan)(n_workers=plan.n_workers, assignment=assignment)
    report = verify_plan(graph, plan)
    assert report.count("NEPG130") == 1, report.render()
    assert {d.code for d in report.diagnostics} == {"NEPG130"}


def test_verify_cluster_rejects_non_dict():
    report = verify_cluster(["not", "a", "spec"])
    assert report.count("NEPG130") == 1
    assert report.exit_code() == 1


def test_verify_cluster_file_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json", encoding="utf-8")
    report = verify_cluster_file(str(bad))
    assert report.count("NEPG130") == 1


def test_verify_cluster_surfaces_graph_errors_first():
    # A descriptor the graph verifier rejects never reaches the plan
    # passes: the cluster report carries the NEPG1xx findings verbatim.
    report = verify_cluster(
        {"descriptor": {"name": "empty", "operators": []}, "workers": 2}
    )
    assert report.errors()
    assert all(d.code.startswith("NEPG1") for d in report.diagnostics)
    assert not any(d.code.startswith("NEPG13") for d in report.diagnostics)


def test_verify_cluster_descriptor_path_round_trip(tmp_path):
    descriptor = _unseeded_relay_descriptor()
    desc_path = tmp_path / "relay.json"
    desc_path.write_text(json.dumps(descriptor), encoding="utf-8")
    spec_path = tmp_path / "cluster.json"
    spec_path.write_text(
        json.dumps({"descriptor_path": "relay.json", "workers": 2}),
        encoding="utf-8",
    )
    report = verify_cluster_file(str(spec_path))
    assert report.count("NEPG136") == 1, report.render()
