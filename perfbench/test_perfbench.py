"""Tests of the benchmark itself: its catalog, estimators and tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pb_report  # noqa: E402
from pb_trace import Tracer  # noqa: E402


# ----------------------------------------------------------------- catalog
def test_catalog_names_units_and_directions_are_valid():
    catalog = pb_report.load_catalog(ROOT)
    assert pb_report.catalog_errors(catalog) == []
    assert pb_report.catalog_errors({"end_to_end": [
        {"name": "bad name", "unit": "s", "better": "lower"},
        {"name": "x", "unit": "", "better": "up"}], "per_layer": []}) == [
        "end_to_end: bad name 'bad name'",
        "x: bad unit ''",
        "x: direction must be one of ('higher', 'lower')"]


def test_reports_produce_exactly_the_catalogued_metrics():
    catalog = pb_report.load_catalog(ROOT)
    e2e = pb_report.end_to_end(
        completed=10, attempted=10, events=500, laps_per_rep=[[0.1], [0.2]],
        import_s=0.3, build_s=[0.01, 0.02], scale=1.0, peak_rss_mb=40.0,
        latencies_ns=list(range(1000, 2000)), app_bytes=10_000,
        sim_ns=1_000_000)
    assert list(e2e) == [m["name"] for m in catalog["end_to_end"]]
    layers = pb_report.per_layer(
        ops=10, self_ns={layer: 1000 for layer in
                         ("sim", "rnic", "topology", "switching",
                          "transport", "verbs", "ctrlplane", "xrdma",
                          "apps", "serving")},
        calls={}, layer_calls={}, counters={},
        stats={"segments_sent": 1, "retransmissions": 0, "ecn_marks": 0,
               "pause_frames": 0, "cnps_sent": 0},
        verbs={"qps_created": 2, "mrs_registered": 2},
        events_per_host_s=1.0, overhead_ratio=1.5, unattributed_ratio=0.0)
    assert sorted(layers) == sorted(m["name"] for m in catalog["per_layer"])


# -------------------------------------------------------------- estimators
def test_percentile_is_nearest_rank_and_counts_the_tail():
    values = list(range(1, 1001))
    assert pb_report.percentile(values, 50) == 500
    assert pb_report.percentile(values, 99) == 990
    assert pb_report.beyond(1000, 99) == 10
    assert pb_report.beyond(1009, 99) == 10
    assert pb_report.beyond(999, 99) == 9


def test_region_estimate_takes_each_slice_from_its_fastest_repetition():
    assert pb_report.fastest_region_s([[1.0, 5.0], [2.0, 3.0]]) == 4.0
    with pytest.raises(ValueError):
        pb_report.fastest_region_s([[1.0], [1.0, 2.0]])


# ------------------------------------------------------------------ tracer
class _Clock:
    """A host clock that only the traced code advances."""

    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns


def _tracer_world(clock):
    from repro.sim.engine import Simulator

    class Worker:
        def step(self, sim, rounds):
            """Generator: burns 100 ns of 'host time' per resume."""
            for _ in range(rounds):
                clock.ns += 100
                yield sim.timeout(10)
            clock.ns += 100
            return rounds

        def outer(self, sim):
            """Generator: 7 ns of its own, then delegates to ``step``."""
            clock.ns += 7
            done = yield from self.step(sim, 2)
            clock.ns += 7
            return done

        def fails(self, sim):
            yield sim.timeout(5)
            raise KeyError("boom")

    return Simulator, Worker


def test_generator_resume_time_is_charged_to_its_own_layer_not_sim():
    clock = _Clock()
    Simulator, Worker = _tracer_world(clock)
    targets = [("sim", Simulator, "run"), ("apps", Worker, "step"),
               ("xrdma", Worker, "outer")]
    with Tracer(clock=clock, targets=targets) as tracer:
        sim = Simulator()
        worker = Worker()
        proc = sim.spawn(worker.step(sim, 3))
        tracer.start()
        sim.run()
        tracer.stop()
    assert proc.value == 3
    self_ns = tracer.self_ns_by_layer()
    assert self_ns["apps"] == 400          # four resumes, 100 ns each
    assert self_ns["sim"] == 0             # the loop itself spent nothing
    assert tracer.root_ns() == sum(self_ns.values())
    assert tracer.n_spans == 1 + 4


def test_nested_generators_split_time_between_their_layers():
    clock = _Clock()
    Simulator, Worker = _tracer_world(clock)
    targets = [("sim", Simulator, "run"), ("apps", Worker, "step"),
               ("xrdma", Worker, "outer")]
    with Tracer(clock=clock, targets=targets) as tracer:
        sim = Simulator()
        worker = Worker()
        proc = sim.spawn(worker.outer(sim))
        tracer.start()
        sim.run()
        tracer.stop()
    assert proc.value == 2
    self_ns = tracer.self_ns_by_layer()
    assert self_ns["apps"] == 300
    assert self_ns["xrdma"] == 14
    assert self_ns["sim"] == 0


def test_wrapped_generator_failures_propagate_and_close_their_spans():
    clock = _Clock()
    Simulator, Worker = _tracer_world(clock)
    targets = [("sim", Simulator, "run"), ("apps", Worker, "fails")]
    with Tracer(clock=clock, targets=targets) as tracer:
        sim = Simulator()
        proc = sim.spawn(Worker().fails(sim))
        proc.defused = True
        tracer.start()
        sim.run()
        tracer.stop()                       # raises if a span stayed open
    assert isinstance(proc.value, KeyError)
    assert tracer.calls["Worker.fails"] == 1


def test_uninstall_restores_the_original_methods():
    from repro.rnic.nic import Rnic
    original = Rnic.__dict__["receive"]
    with Tracer():
        assert Rnic.__dict__["receive"] is not original
    assert Rnic.__dict__["receive"] is original


# ---------------------------------------------------- tracing is invisible
@pytest.mark.parametrize("workload", ["essd-storm", "rpc-pingpong",
                                      "fig10-incast", "serving-mix"])
def test_traced_repetition_simulates_the_untraced_outcome(workload):
    import pb_workloads
    import run as bench

    factory = pb_workloads.WORKLOADS[workload]
    plain = bench.run_rep(factory, seed=3, check=True)
    with Tracer() as tracer:
        traced = bench.run_rep(factory, seed=3, check=True, tracer=tracer)
    assert traced.fingerprint() == plain.fingerprint()
    assert plain.outcome.failed == 0
    assert tracer.n_spans > 0
    self_ns = tracer.self_ns_by_layer()
    assert sum(self_ns.values()) == tracer.root_ns()
