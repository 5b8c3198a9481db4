"""The runtime's import diet, guarded.

Every process of a job (coordinator, each worker) pays the runtime's
imports in ``setup_s`` and resident memory.  numpy is only needed by
the entropy gate of a compressing link, scipy only by the paper's
significance tests (``repro.sim.experiments`` and the COMP study), and
networkx by nothing — a module-level import of any of them on the
runtime path would put a few hundred milliseconds and tens of MiB back
without a test failing, so this one does.  The same holds, a few
milliseconds at a time, for the repo's own planes: an in-process job
loads no observability plane beyond tracing, no TCP transport, no AST
lint or plan verifier, and no cluster package.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import json, sys, threading
import repro.core.runtime, repro.core.distributed, repro.cluster.worker
from repro.core.config import NeptuneConfig
from repro.core.graph import StreamProcessingGraph
from repro.core.runtime import NeptuneRuntime
from repro.workloads.operators import CollectingSink, CountingSource

def heavy():
    return sorted(m for m in ("networkx", "numpy", "scipy") if m in sys.modules)

class GatedSource(CountingSource):
    # Emits nothing (so no link flushes a batch) until submit() has looked.
    go = threading.Event()

    def generate(self, ctx):
        self.go.wait()
        super().generate(ctx)

def submit(compression):
    GatedSource.go.clear()
    graph = StreamProcessingGraph(
        "hygiene", config=NeptuneConfig(compression_enabled=compression)
    )
    graph.add_source("source", lambda: GatedSource(total=50))
    graph.add_processor("sink", CollectingSink)
    # Only a buffered leg compresses: chained, nothing is serialised.
    graph.link("source", "sink", chain=not compression)
    with NeptuneRuntime() as runtime:
        handle = runtime.submit(graph)
        loaded = heavy()  # wired and scheduled, nothing emitted yet
        GatedSource.go.set()
        assert handle.await_completion(timeout=30) and not handle.failures
    return loaded

print(json.dumps({
    "imported": heavy(),
    "ran_plain": submit(False),
    "wired_compressed": submit(True),
}))
"""


def test_runtime_path_imports_no_numpy_scipy_networkx_until_a_link_compresses():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["imported"] == []
    # Validating, wiring and running a job without compression: still none.
    assert loaded["ran_plain"] == []
    # An enabled CompressionPolicy is constructed while wiring, and
    # that — not the first flush of the running job — imports numpy.
    assert loaded["wired_compressed"] == ["numpy"]


PLANES_SCRIPT = """
import json, sys
import repro.core.runtime
from repro.core.graph import StreamProcessingGraph
from repro.core.runtime import NeptuneRuntime
from repro.workloads.operators import CollectingSink, CountingSource, RelayProcessor

graph = StreamProcessingGraph("planes")
graph.add_source("source", lambda: CountingSource(total=200))
graph.add_processor("relay", RelayProcessor, parallelism=2)
graph.add_processor("sink", CollectingSink)
graph.link("source", "relay").link("relay", "sink")
with NeptuneRuntime() as runtime:
    handle = runtime.submit(graph)
    assert handle.await_completion(timeout=30) and not handle.failures
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

#: Modules an uncompressed in-process job has no use for.
UNUSED_PLANES = [
    *(
        f"repro.observe.{m}"
        for m in (
            "collector",
            "health",
            "doctor",
            "policy",
            "flightrec",
            "export",
            "bridge",
            "observer",
        )
    ),
    "repro.net.transport",
    *(f"repro.analysis.{m}" for m in ("lint", "lintrules", "threadmodel", "plancheck")),
    "repro.cluster",
]


def test_an_in_process_job_imports_only_the_planes_it_runs():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PLANES_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    # The job did validate its graph and trace-gate its hops.
    assert {"repro.analysis.graphcheck", "repro.observe.tracing"} <= loaded
    assert [m for m in UNUSED_PLANES if m in loaded] == []
