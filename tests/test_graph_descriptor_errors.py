"""Typed error paths of ``StreamProcessingGraph.from_descriptor``.

The satellite hardening: wiring mistakes in a descriptor must raise
dedicated :class:`GraphValidationError` subclasses at build time, never
a bare ``KeyError``.
"""

import pytest

from repro.core.graph import StreamProcessingGraph
from repro.util.errors import (
    DescriptorError,
    DuplicateLinkError,
    GraphValidationError,
    PartitioningError,
    UnknownOperatorError,
)

CS = "repro.workloads.operators:CountingSource"
SINK = "repro.workloads.operators:CollectingSink"


def _desc(links, operators=None):
    return {
        "name": "t",
        "operators": operators
        or [
            {"name": "src", "type": "source", "class": CS},
            {"name": "sink", "type": "processor", "class": SINK},
        ],
        "links": links,
    }


def test_unknown_link_endpoint_is_typed():
    with pytest.raises(UnknownOperatorError, match="undeclared operator 'ghost'"):
        StreamProcessingGraph.from_descriptor(_desc([{"from": "src", "to": "ghost"}]))


def test_duplicate_link_is_typed():
    with pytest.raises(DuplicateLinkError, match="duplicate link"):
        StreamProcessingGraph.from_descriptor(
            _desc([{"from": "src", "to": "sink"}, {"from": "src", "to": "sink"}])
        )


def test_bad_partitioning_name_is_typed():
    with pytest.raises(PartitioningError, match="unknown partitioning scheme"):
        StreamProcessingGraph.from_descriptor(
            _desc([{"from": "src", "to": "sink", "partitioning": "zigzag"}])
        )


def test_unbuildable_partitioning_spec_is_typed():
    # Registered scheme, wrong constructor arguments.
    with pytest.raises(PartitioningError):
        StreamProcessingGraph.from_descriptor(
            _desc(
                [
                    {
                        "from": "src",
                        "to": "sink",
                        "partitioning": {"scheme": "fields", "bogus": True},
                    }
                ]
            )
        )


@pytest.mark.parametrize(
    "desc, match",
    [
        ("not a dict", "must be an object"),
        ({"operators": []}, "missing required key 'name'"),
        ({"name": "x"}, "missing required key 'operators'"),
        ({"name": "x", "operators": [{"type": "source"}]}, "needs a 'name'"),
        (
            {"name": "x", "operators": [{"name": "s", "type": "source"}]},
            "no class path",
        ),
        (
            {
                "name": "x",
                "operators": [{"name": "s", "type": "widget", "class": CS}],
            },
            "unknown operator type",
        ),
        (
            {"name": "x", "operators": [], "links": ["src->sink"]},
            "link entry must be an object",
        ),
        (
            {"name": "x", "operators": [], "links": [{"from": "src"}]},
            "missing required key 'to'",
        ),
        ({"name": "x", "operators": [], "config": 7}, "must be an object"),
        (
            {"name": "x", "operators": [], "config": {"no_such_field": 1}},
            "bad descriptor config",
        ),
        (
            _desc([{"from": "src", "to": "sink", "compression": {"level": 9}}]),
            "link 'src'->'sink': 'compression' must be true, false or null",
        ),
    ],
)
def test_malformed_descriptors_raise_descriptor_error(desc, match):
    with pytest.raises(DescriptorError, match=match):
        StreamProcessingGraph.from_descriptor(desc)


def test_typed_errors_are_graph_validation_errors():
    # Callers catching the legacy type keep working.
    for exc_type in (
        DescriptorError,
        UnknownOperatorError,
        DuplicateLinkError,
        PartitioningError,
    ):
        assert issubclass(exc_type, GraphValidationError)


def test_descriptor_config_overrides_apply():
    desc = _desc([{"from": "src", "to": "sink"}])
    desc["config"] = {"buffer_capacity": 4096, "latency_budget": 0.5}
    graph = StreamProcessingGraph.from_descriptor(desc)
    assert graph.config.buffer_capacity == 4096
    assert graph.config.latency_budget == 0.5


def test_explicit_config_wins_over_descriptor_config():
    from repro.core.config import NeptuneConfig

    desc = _desc([{"from": "src", "to": "sink"}])
    desc["config"] = {"buffer_capacity": 4096}
    graph = StreamProcessingGraph.from_descriptor(
        desc, config=NeptuneConfig(buffer_capacity=1024)
    )
    assert graph.config.buffer_capacity == 1024
