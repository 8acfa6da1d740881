"""Host-time benchmark of the X-RDMA reproduction on the paper workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload essd-storm --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; the traced ones must reproduce the untraced outcome
exactly.  Either way a check run with fatal invariants follows, and any
failed gate makes the command exit non-zero.  The last line of standard
output is the JSON result.  ``NOTES.md`` explains the workloads and what
each per-layer metric should move.
"""

import argparse
import gc
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import pb_report
from pb_trace import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: repetitions below this count give no determinism check
MIN_REPS = 2
#: the p99 needs this many samples beyond it (else the run is too small)
MIN_TAIL = 10
#: largest share of traced CPU time the spans may leave unattributed
MAX_UNATTRIBUTED = 0.03


class GateError(Exception):
    """A correctness gate failed."""


@dataclass
class Rep:
    """One timed repetition of a workload."""

    build_s: float
    region_s: float         #: CPU seconds of the measured region
    laps: List[float]       #: per-slice CPU seconds, rescaled to CAL_REF_S
    scale: float            #: the rescaling factor of this repetition
    events: int
    outcome: Any
    stats: Dict[str, int]
    verbs: Dict[str, int]
    start_ns: int
    nops_sent: int = 0      #: NOPs of the channels a tracer saw

    def fingerprint(self):
        """Everything simulated the repetition produced."""
        out = self.outcome
        return (self.events, tuple(sorted(self.stats.items())),
                out.attempted, out.failed, tuple(out.latencies_ns),
                out.app_bytes, out.end_ns - self.start_ns,
                tuple(sorted(self.verbs.items())))


def fired(sim) -> int:
    """Events the simulator has fired so far (scheduled minus pending)."""
    return sim._sequence - len(sim._heap) - len(sim._nowq)


def verbs_counts(cluster) -> Dict[str, int]:
    return {"qps_created": sum(h.verbs.qps_created for h in cluster.hosts),
            "mrs_registered": sum(h.verbs.mrs_registered
                                  for h in cluster.hosts)}


def run_rep(factory, seed: int, check: bool = False,
            tracer=None) -> Rep:
    """Build, run and tear down one repetition; check it leaked nothing."""
    from repro.analysis import invariants

    gc.collect()
    cpu = time.process_time
    started = cpu()
    inst = factory(seed, check)
    build_s = cpu() - started
    sim = inst.cluster.sim
    start_ns = sim.now
    fired_before = fired(sim)
    verbs_before = verbs_counts(inst.cluster)
    if tracer is not None:
        tracer.now = lambda: sim.now
        tracer.start()
    timer = pb_report.SliceTimer(cpu)
    done = inst.start()
    inst.drive(done, timer)
    if tracer is not None:
        tracer.stop()
    timer.finish()
    events = fired(sim) - fired_before
    verbs = {key: value - verbs_before[key]
             for key, value in verbs_counts(inst.cluster).items()}
    outcome = inst.outcome()
    stats = inst.cluster.stats.snapshot()
    nops_sent = 0
    if tracer is not None:
        nops_sent = sum(ch.stats["nops_sent"]
                        for ch in tracer.channels.values())
    for ctx in inst.teardown():
        if check:
            violations = invariants.verify_context(ctx)
            if violations:
                raise GateError(f"{ctx.name}: invariant violations "
                                f"{violations[:3]}")
        leaks = {"channels": len(ctx.channels),
                 "memcache_in_use": ctx.memcache.in_use_bytes,
                 "wr_budget_in_use": ctx.wr_budget.in_use}
        if any(leaks.values()):
            raise GateError(f"{ctx.name}: not released at teardown {leaks}")
    return Rep(build_s, timer.region_s, timer.scaled_laps(), timer.scale,
               events, outcome, stats, verbs, start_ns, nops_sent)


def check_run(name: str, factory, seed: int) -> List[str]:
    """A small instance under fatal invariants; returns report lines."""
    from repro.analysis import invariants
    registry = invariants.install(mode="fatal")
    try:
        rep = run_rep(factory, seed, check=True)
    finally:
        invariants.uninstall()
    if registry.total:
        raise GateError(f"invariant violations: {dict(registry.counts)}")
    if rep.outcome.failed:
        raise GateError(f"check run: {rep.outcome.failed} of "
                        f"{rep.outcome.attempted} ops failed")
    lines = [f"check run: {rep.outcome.attempted} ops, fatal invariants "
             f"clean, nothing leaked at teardown"]
    if name == "rpc-pingpong":
        lines.append(fig7_order(rep))
    return lines


def fig7_order(rep: Rep) -> str:
    """Fig. 7 at 64 B: ibv-pingpong <= X-RDMA < ucx-am-rc (one-way us)."""
    from repro.baselines import IbvPingPong, UcxEndpoint
    from repro.baselines.common import run_pingpong
    from repro.cluster import build_cluster

    def one_way_us(endpoint_cls):
        latencies = run_pingpong(build_cluster(2), endpoint_cls, 64,
                                 iterations=24)
        return statistics.mean(latencies) / 1000

    # Same convention as the Fig. 7 bench: RTT / 2, first three dropped.
    xrdma = statistics.mean(rep.outcome.latencies_ns[3:]) / 2 / 1000
    ibv = one_way_us(IbvPingPong)
    ucx = one_way_us(UcxEndpoint)
    line = (f"Fig. 7 order at 64 B: ibv-pingpong {ibv:.3f} us <= X-RDMA "
            f"{xrdma:.3f} us < ucx-am-rc {ucx:.3f} us")
    if not ibv <= xrdma < ucx:
        raise GateError("broken " + line)
    return line


def timed_reps(factory, seed: int, seconds: float, traced: bool):
    """Repeat the workload until the budget is spent; with ``traced``,
    alternate untraced and traced repetitions."""
    plain: List[Rep] = []
    traced_reps: List[Any] = []
    started = time.perf_counter()
    while True:
        plain.append(run_rep(factory, seed))
        if traced:
            with Tracer() as tracer:
                traced_reps.append((run_rep(factory, seed, tracer=tracer),
                                    tracer))
        elapsed = time.perf_counter() - started
        rounds = len(plain)
        # Stop when one more round would end nearer past the budget than
        # this one ends before it.
        if rounds >= MIN_REPS and elapsed + elapsed / rounds / 2 > seconds:
            return plain, traced_reps


def gate_outcome(name: str, reps: List[Rep]) -> None:
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=2):
        if rep.fingerprint() != first.fingerprint():
            raise GateError(f"repetition {index} simulated a different "
                            f"outcome than repetition 1")
    out = first.outcome
    if out.failed:
        raise GateError(f"{out.failed} of {out.attempted} ops failed "
                        f"(none should on {name})")
    tail = pb_report.beyond(len(out.latencies_ns), 99)
    if tail < MIN_TAIL:
        raise GateError(f"only {tail} samples beyond p99 (need {MIN_TAIL})")


def report_e2e(reps: List[Rep], import_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    out = reps[0].outcome
    return pb_report.end_to_end(
        completed=out.completed, attempted=out.attempted,
        events=reps[0].events, laps_per_rep=[rep.laps for rep in reps],
        import_s=import_s, build_s=[rep.build_s for rep in reps],
        scale=statistics.median(rep.scale for rep in reps),
        peak_rss_mb=peak_rss_mb, latencies_ns=out.latencies_ns,
        app_bytes=out.app_bytes, sim_ns=out.end_ns - reps[0].start_ns)


def report_layers(plain: List[Rep], traced) -> Dict[str, float]:
    first = plain[0]
    for rep, _tracer in traced:
        if rep.fingerprint() != first.fingerprint():
            raise GateError("the traced run simulated a different outcome "
                            "than the untraced run")
    ops = first.outcome.completed
    unattributed = []
    self_ns: Dict[str, List[int]] = {layer: [] for layer in LAYERS}
    for rep, tracer in traced:
        by_layer = tracer.self_ns_by_layer()
        for layer in LAYERS:
            self_ns[layer].append(by_layer[layer] * rep.scale)
        region_ns = rep.region_s * 1e9
        unattributed.append(abs(region_ns - sum(by_layer.values()))
                            / region_ns)
    worst = max(unattributed)
    if worst > MAX_UNATTRIBUTED:
        raise GateError(f"layer self times leave {worst:.1%} of the traced "
                        f"CPU time unattributed")
    rep, tracer = traced[0]
    counters = dict(tracer.counters)
    counters["xrdma.nops_sent"] = rep.nops_sent
    return pb_report.per_layer(
        ops=ops,
        self_ns={layer: statistics.median(v) for layer, v in self_ns.items()},
        calls=dict(tracer.calls),
        layer_calls={layer: tracer.calls_in_layer(layer)
                     for layer in LAYERS},
        counters=counters, stats=rep.stats, verbs=rep.verbs,
        events_per_host_s=first.events / pb_report.fastest_region_s(
            [r.laps for r in plain]),
        overhead_ratio=(statistics.median(sum(r.laps) for r, _ in traced)
                        / statistics.median(sum(r.laps) for r in plain)),
        unattributed_ratio=worst)


def print_table(title: str, values: Dict[str, float], section) -> None:
    print(title)
    for metric in section:
        print(f"  {metric['name']:<32} {values[metric['name']]:>16.6g} "
              f"{metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro package under {ROOT}/src; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pb_workloads
    # CPU time since the process started: interpreter, imports, nothing else
    import_s = time.process_time()

    catalog = pb_report.load_catalog(ROOT)
    errors = pb_report.catalog_errors(catalog)
    if errors:
        print(f"perfbench: BENCHMARK.json: {'; '.join(errors)}",
              file=sys.stderr)
        return 2
    factory = pb_workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(pb_workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        plain, traced = timed_reps(factory, args.seed, args.seconds,
                                   bool(args.trace))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate_outcome(args.workload, plain)
        if args.trace:
            values = report_layers(plain, traced)
            section = catalog["per_layer"]
        else:
            values = report_e2e(plain, import_s, peak_rss_mb)
            section = catalog["end_to_end"]
        check_lines = check_run(args.workload, factory, args.seed)
    except GateError as exc:
        print(f"perfbench: correctness gate failed on {args.workload} "
              f"(seed {args.seed}): {exc}", file=sys.stderr)
        return 1

    out = plain[0].outcome
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain)} untraced repetitions"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {out.completed} ops each, {len(out.latencies_ns)} latency "
          f"samples ({pb_report.beyond(len(out.latencies_ns), 99)} beyond "
          f"p99), {plain[0].events} events")
    for line in check_lines:
        print(line)
    print_table("per-layer (traced run)" if args.trace else "end-to-end",
                values, section)
    print(pb_report.result_line(True, sum(r.outcome.attempted for r in plain),
                                sum(r.outcome.failed for r in plain),
                                values, section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
