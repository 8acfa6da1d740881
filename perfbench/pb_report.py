"""Metric catalog, host timing, estimators and the two reports.

Nothing here imports ``repro``, so the tests can check the catalog and
estimators alone.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import time
from typing import Callable, Dict, List, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BETTER = ("higher", "lower")


def load_catalog(root: str) -> Dict[str, List[Dict]]:
    """``BENCHMARK.json`` at ``root``: the one list of metrics, units and
    directions the report prints."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def catalog_errors(catalog: Dict) -> List[str]:
    """Every way ``catalog`` breaks the naming rules (empty when valid)."""
    errors = []
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for metric in catalog[section]:
            name = metric.get("name", "")
            if not NAME_RE.fullmatch(name):
                errors.append(f"{section}: bad name {name!r}")
            if name in seen:
                errors.append(f"{section}: {name} used twice")
            seen.add(name)
            if not UNIT_RE.fullmatch(metric.get("unit", "")):
                errors.append(f"{name}: bad unit {metric.get('unit')!r}")
            if metric.get("better") not in BETTER:
                errors.append(f"{name}: direction must be one of {BETTER}")
    return errors


# ------------------------------------------------------------ host timing
#: iterations of the calibration loop
CAL_ITERS = 100_000
#: CPU seconds the calibration loop takes on an idle 2-vCPU Intel Xeon VM
#: under CPython 3.11; measured CPU seconds are rescaled to that speed
CAL_REF_S = 0.0067


def calibrate(clock: Callable[[], float] = time.process_time) -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed now.

    On a shared machine the same work takes 10-40% more CPU time while
    neighbours are busy, and such spells last seconds.  The loop shares
    the interpreter and the core with the simulator, so the ratio of the
    two cancels most of that drift; repro code never runs inside it.
    """
    started = clock()
    total = 0
    for i in range(CAL_ITERS):
        total += i * i
    return clock() - started


class SliceTimer:
    """Times the measured region slice by slice; calibration time is not in
    ``laps``.

    It calibrates before every slice, ``LEAD_CALS`` times before the first
    one and up to ``MIN_CALS`` in all after the last, so that a region of
    one long slice still gets a robust median.
    """

    LEAD_CALS = 3
    MIN_CALS = 6

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.laps: List[float] = []
        self.cals: List[float] = []

    def run(self, fn: Callable[[], object]) -> None:
        for _ in range(1 if self.laps else self.LEAD_CALS):
            self.cals.append(calibrate(self.clock))
        started = self.clock()
        fn()
        self.laps.append(self.clock() - started)

    def finish(self) -> None:
        self.cals.append(calibrate(self.clock))
        while len(self.cals) < self.MIN_CALS:
            self.cals.append(calibrate(self.clock))

    @property
    def region_s(self) -> float:
        return sum(self.laps)

    @property
    def scale(self) -> float:
        """Factor from CPU seconds now to CPU seconds at reference speed."""
        return CAL_REF_S / statistics.median(self.cals)

    def scaled_laps(self) -> List[float]:
        """Laps rescaled to the reference machine speed."""
        return [lap * self.scale for lap in self.laps]


# -------------------------------------------------------------- estimators
def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly past the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def fastest_region_s(laps_per_rep: Sequence[Sequence[float]]) -> float:
    """Host seconds of one measured region, from repeated identical runs.

    Every repetition runs the same simulated slices, so slice ``k`` does
    the same work in each; noise from the shared machine only ever adds
    time.  The estimate is the sum over slices of the fastest repetition
    of that slice (laps already rescaled by :class:`SliceTimer`).
    """
    lengths = {len(laps) for laps in laps_per_rep}
    if len(lengths) != 1:
        raise ValueError(f"repetitions ran different slice counts: {lengths}")
    return sum(min(column) for column in zip(*laps_per_rep))


def end_to_end(*, completed: int, attempted: int, events: int,
               laps_per_rep: Sequence[Sequence[float]],
               import_s: float, build_s: Sequence[float], scale: float,
               peak_rss_mb: float, latencies_ns: Sequence[int],
               app_bytes: int, sim_ns: int) -> Dict[str, float]:
    """The eight end-to-end metrics of one workload run.

    ``laps_per_rep`` are already at reference speed; ``import_s`` and
    ``build_s`` are raw CPU seconds, rescaled here by ``scale``.
    """
    ordered = sorted(latencies_ns)
    return {
        "host_ops_per_s": completed / fastest_region_s(laps_per_rep),
        "events_per_op": events / completed,
        "setup_s": (import_s + statistics.median(build_s)) * scale,
        "peak_rss_mb": peak_rss_mb,
        "sim_p50_us": percentile(ordered, 50) / 1000.0,
        "sim_p99_us": percentile(ordered, 99) / 1000.0,
        "sim_goodput_gbps": app_bytes * 8 / sim_ns,
        "op_ok_ratio": completed / attempted,
    }


def per_layer(*, ops: int, self_ns: Dict[str, float], calls: Dict[str, int],
              layer_calls: Dict[str, int], counters: Dict[str, float],
              stats: Dict[str, int], verbs: Dict[str, int],
              events_per_host_s: float, overhead_ratio: float,
              unattributed_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run."""
    def ratio(hits: str, misses: str) -> float:
        total = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / total if total else 0.0

    out = {f"{layer}.self_us_per_op": ns / 1000.0 / ops
           for layer, ns in self_ns.items()}
    app_msgs = counters.get("xrdma.app_msgs", 0)
    out.update({
        "sim.events_per_host_s": events_per_host_s,
        "rnic.segments_per_op": stats["segments_sent"] / ops,
        "rnic.retransmissions": stats["retransmissions"],
        "topology.enqueues_per_op": calls.get("EgressPort.enqueue", 0) / ops,
        "topology.peak_queue_kb":
            counters.get("topology.peak_queue_bytes", 0) / 1024.0,
        "switching.ecn_marks": stats["ecn_marks"],
        "switching.pause_frames": stats["pause_frames"],
        "transport.cnps_sent": stats["cnps_sent"],
        "verbs.qps_created": verbs["qps_created"],
        "verbs.mrs_registered": verbs["mrs_registered"],
        "ctrlplane.qp_cache_hit_ratio":
            ratio("qp_cache.hits", "qp_cache.misses"),
        "ctrlplane.mr_cache_hit_ratio":
            ratio("mr_cache.hits", "mr_cache.misses"),
        "xrdma.calls_per_op": layer_calls.get("xrdma", 0) / ops,
        "xrdma.rendezvous_share":
            counters.get("xrdma.rendezvous_msgs", 0) / app_msgs
            if app_msgs else 0.0,
        "xrdma.memcache_allocs_per_op": calls.get("MemCache.alloc", 0) / ops,
        "xrdma.flowctl_queued_peak":
            counters.get("xrdma.flowctl_queued_peak", 0),
        "xrdma.nops_sent": counters.get("xrdma.nops_sent", 0),
        "serving.gen_late_us": counters.get("serving.gen_late_ns", 0) / 1000.0,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_ratio": unattributed_ratio,
    })
    return out


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], catalog_section: List[Dict]) -> str:
    """The JSON result line: exactly the declared metrics, with units."""
    metrics = {}
    for metric in catalog_section:
        name = metric["name"]
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
