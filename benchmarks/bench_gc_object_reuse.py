"""GC — object reuse cuts garbage-collection time (paper §III-B3).

Paper: "Object reuse helped reduce the percentage of time spent by the
JVM on garbage collection over the time spent on actual processing from
8.63% to 0.79%."  Measured on the simulated relay's GC model, which
reproduces the paper's percentages.  The real runtime's packet reuse on
the emit path is pinned by ``tests/test_link_path.py``.
"""

from repro.sim import experiments as exp


def test_gc_fraction_sim(benchmark, sim_budget):
    duration, _ = sim_budget

    def run():
        return exp.gc_object_reuse(duration=duration)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(exp.format_rows(rows, title="GC time as % of processing (sim)"))
    reuse = rows[0]["gc_time_pct_of_processing"]
    no_reuse = rows[1]["gc_time_pct_of_processing"]
    # Paper: 0.79% vs 8.63% — same regime, ~10x apart.
    assert 0.1 < reuse < 3.0
    assert 4.0 < no_reuse < 25.0
    assert no_reuse > 5 * reuse
