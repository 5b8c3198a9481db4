"""Package-level behaviour: lazy exports, version, module map."""

import importlib

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "name",
        ["StreamPacket", "StreamProcessingGraph", "StreamSource", "StreamProcessor", "NeptuneRuntime"],
    )
    def test_export_resolves(self, name):
        obj = getattr(repro, name)
        assert obj is not None
        # Resolves to the same object as the canonical module path.
        module = importlib.import_module(repro._EXPORTS[name])
        assert getattr(module, name) is obj

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.NoSuchThing  # noqa: B018

    def test_all_lists_exports(self):
        for name in repro._EXPORTS:
            assert name in repro.__all__


class TestSubpackagesImportable:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.granules",
            "repro.net",
            "repro.lz4",
            "repro.compression",
            "repro.broker",
            "repro.sim",
            "repro.workloads",
            "repro.cli",
            "repro.core.distributed",
            "repro.core.checkpoint",
            "repro.workloads.stdlib",
            "repro.sim.experiments",
        ],
    )
    def test_imports_cleanly(self, module):
        importlib.import_module(module)
