"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload builds a cluster from generated inputs, starts its load in
the measured region, and reports what the region produced.  One
repetition is a pure function of the seed: the benchmark repeats it to
fill its time budget, times every repetition, and requires every
repetition to produce the same simulated outcome.

Why each workload is in the benchmark is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.apps import PanguDeployment
from repro.apps.pangu import BLOCK_PORT
from repro.cluster import Cluster, build_cluster
from repro.serving import ServingHarness, TenantSpec, TrafficClass
from repro.sim import MICROS, MILLIS, SECONDS
from repro.sim.params import congested_params
from repro.xrdma import XrdmaConfig
from repro.xrdma.channel import ChannelBroken

#: service port for the benchmark's own RPC and incast endpoints
PORT = 8750
#: Seed of the model's own random streams (ECN marking, arrival gaps).
#: It is part of the configuration: ``--seed`` generates the workload's
#: inputs, and the program receives only those.
CLUSTER_SEED = 0


@dataclass
class Outcome:
    """What one measured region produced (all in simulated units)."""

    attempted: int
    failed: int
    latencies_ns: List[int]
    app_bytes: int          #: payload bytes the clients sent and received
    end_ns: int             #: sim time the last op completed

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


@dataclass
class Instance:
    """One built workload: its cluster and the hooks the runner calls."""

    cluster: Cluster
    #: spawns the load; returns the event that fires when it is done
    start: Callable[[], Any]
    #: runs the measured region slice by slice through a SliceTimer
    drive: Callable[[Any, Any], None]
    outcome: Callable[[], Outcome]
    #: closes what the load left open; returns every context to check
    teardown: Callable[[], List[Any]]


def channel_payload_bytes(channels) -> int:
    """Application payload bytes through ``channels`` (no headers, no
    retransmissions: the channel counts each message once)."""
    return sum(ch.stats["tx_bytes"] + ch.stats["rx_bytes"]
               for ch in channels)


def close_all(cluster: Cluster, contexts) -> None:
    """Orderly-close every channel the ``contexts`` own, then settle."""
    sim = cluster.sim

    def closer():
        for ctx in contexts:
            for channel in list(ctx.channels.values()):
                yield from ctx.close_channel(channel)

    sim.run_until_event(sim.spawn(closer()), limit=sim.now + 10 * SECONDS)
    sim.run(until=sim.now + 20 * MILLIS)


# -------------------------------------------------------------- essd-storm
ESSD_IO_BYTES = 128 * 1024
ESSD_QUEUE_DEPTH = 4
ESSD_THINK_NS = 1 * MICROS


def essd_storm(seed: int, check: bool) -> Instance:
    """Fig. 8: two block servers connect-mesh to four chunk servers while
    two ESSD front-ends run 128 KB writes at queue depth 4.

    The front-ends connect during the storm.  I/Os a front-end issues
    before its block server's mesh is up wait for it, and their latency
    counts from issue; a write the block server refuses counts as failed.
    A think time of 0-1 us before each next I/O comes from the seed.
    """
    rng = random.Random(seed)
    ios_per_frontend = 40 if check else 520
    thinks = [[rng.randrange(ESSD_THINK_NS) for _ in range(ios_per_frontend)]
              for _ in range(2)]
    cluster = build_cluster(8, seed=CLUSTER_SEED)
    sim = cluster.sim
    chunk_hosts = [2, 3, 4, 5]
    deployment = PanguDeployment.build(cluster, block_hosts=[0, 1],
                                       chunk_hosts=chunk_hosts, replicas=3)
    frontends = [cluster.xrdma_context(6 + index, name=f"essd{6 + index}")
                 for index in range(2)]
    latencies: List[int] = []
    channels: List[Any] = []
    failures = [0]
    last = [0]

    def frontend(ctx, block_host: int, mesh, think):
        channel = yield from ctx.connect(block_host, BLOCK_PORT)
        channels.append(channel)
        issued_at = sim.now
        if not mesh.triggered:
            yield mesh

        def issue():
            return ctx.send_request(channel, ESSD_IO_BYTES,
                                    payload={"op": "frontend_write"})

        inflight = deque((issued_at, issue())
                         for _ in range(min(ESSD_QUEUE_DEPTH,
                                            ios_per_frontend)))
        issued = len(inflight)
        while inflight:
            t0, request = inflight.popleft()
            try:
                reply = yield request.response
            except ChannelBroken:
                failures[0] += 1
                continue
            if (reply.payload or {}).get("ok"):
                latencies.append(sim.now - t0)
            else:
                failures[0] += 1
            last[0] = sim.now
            if issued < ios_per_frontend:
                yield sim.timeout(think[issued])
                inflight.append((sim.now, issue()))
                issued += 1

    def start():
        meshes = [sim.spawn(server.connect_mesh(chunk_hosts))
                  for server in deployment.block_servers]
        procs = [sim.spawn(frontend(ctx, index, meshes[index],
                                    thinks[index]))
                 for index, ctx in enumerate(frontends)]
        return sim.all_of(meshes + procs)

    def outcome():
        return Outcome(attempted=2 * ios_per_frontend, failed=failures[0],
                       latencies_ns=latencies,
                       app_bytes=channel_payload_bytes(channels),
                       end_ns=last[0])

    def teardown():
        block = [server.ctx for server in deployment.block_servers]
        chunk = [server.ctx for server in deployment.chunk_servers]
        close_all(cluster, frontends + block)
        return frontends + block + chunk

    return Instance(cluster, start, sliced(5 * MILLIS), outcome, teardown)


# ------------------------------------------------------------ rpc-pingpong
def rpc_pingpong(seed: int, check: bool) -> Instance:
    """Fig. 7: a closed loop of small eager RPCs over one channel.

    Request sizes (32-96 B, mean 64 B, echoed back) and a client think
    time of 0-0.5 us are drawn from the seed, so the latency tail moves
    with the seed.  The check run is the Fig. 7 point itself: 64 B both
    ways, back to back.
    """
    rng = random.Random(seed)
    n_rpcs = 200 if check else 4000
    if check:
        sizes = [64] * n_rpcs
        thinks = [0] * n_rpcs
    else:
        sizes = [rng.randint(32, 96) for _ in range(n_rpcs)]
        thinks = [rng.randrange(500) for _ in range(n_rpcs)]
    cluster = build_cluster(2, seed=CLUSTER_SEED)
    sim = cluster.sim
    client = cluster.xrdma_context(0, name="pp-client")
    server = cluster.xrdma_context(1, name="pp-server")
    accepted = server.listen(PORT)
    latencies: List[int] = []
    channels: List[Any] = []
    failures = [0]
    last = [0]

    def scenario():
        channel = yield from client.connect(1, PORT)
        channels.append(channel)
        server_channel = yield accepted.get()
        server_channel.on_request = \
            lambda msg: server.send_response(msg, msg.payload_size)
        for size, think in zip(sizes, thinks):
            if think:
                yield sim.timeout(think)
            t0 = sim.now
            request = client.send_request(channel, size)
            try:
                yield request.response
            except ChannelBroken:
                failures[0] += 1
                continue
            latencies.append(sim.now - t0)
            last[0] = sim.now

    def outcome():
        return Outcome(attempted=n_rpcs, failed=failures[0],
                       latencies_ns=latencies,
                       app_bytes=channel_payload_bytes(channels),
                       end_ns=last[0])

    def teardown():
        close_all(cluster, [client])
        return [client, server]

    return Instance(cluster, lambda: sim.spawn(scenario()),
                    sliced(5 * MILLIS), outcome, teardown)


# ------------------------------------------------------------ fig10-incast
INCAST_SOURCES = 8
INCAST_STREAMS = 4
INCAST_BYTES = 128 * 1024
INCAST_PER_STREAM = 32
INCAST_OFFSET_NS = 2 * MICROS


def fig10_incast(seed: int, check: bool) -> Instance:
    """Fig. 10 (``128KB-fc``): 8 sources x 4 streams send back-to-back
    128 KB messages to one sink under congested fabric parameters, with
    X-RDMA flow control on.  Per-stream start offsets (0-2 us) come from
    the seed; per-message latency runs from send to delivery at the sink.
    """
    rng = random.Random(seed)
    per_stream = 4 if check else INCAST_PER_STREAM
    n_streams = INCAST_SOURCES * INCAST_STREAMS
    offsets = [rng.randrange(INCAST_OFFSET_NS) for _ in range(n_streams)]
    cluster = build_cluster(INCAST_SOURCES + 1, params=congested_params(),
                            seed=CLUSTER_SEED)
    sim = cluster.sim
    config = XrdmaConfig(flow_control=True)
    sink_host = INCAST_SOURCES
    sink = cluster.xrdma_context(sink_host, config=config, name="sink")
    sink.listen(PORT)
    sources = [cluster.xrdma_context(host, config=config, name=f"src{host}")
               for host in range(INCAST_SOURCES)]
    sent: Dict[int, int] = {}
    delivered: Dict[int, int] = {}
    channels: List[Any] = []

    def sink_loop():
        while True:
            msg = yield sink.incoming.get()
            delivered[msg.header.msg_id] = sim.now

    def stream(ctx, offset: int):
        yield sim.timeout(offset)
        channel = yield from ctx.connect(sink_host, PORT)
        channels.append(channel)
        for _ in range(per_stream):
            msg = ctx.send_msg(channel, INCAST_BYTES)
            sent[msg.msg_id] = sim.now
            yield sim.timeout(1)
        while channel.window.in_flight > 0 or channel.pending_send:
            yield sim.timeout(100 * MICROS)

    def start():
        sim.spawn(sink_loop(), name="bench:sink")
        return sim.all_of([
            sim.spawn(stream(sources[index // INCAST_STREAMS], offset))
            for index, offset in enumerate(offsets)])

    def outcome():
        lost = [msg_id for msg_id in sent if msg_id not in delivered]
        return Outcome(
            attempted=n_streams * per_stream,
            failed=n_streams * per_stream - len(sent) + len(lost),
            latencies_ns=[delivered[msg_id] - sent_at
                          for msg_id, sent_at in sent.items()
                          if msg_id in delivered],
            app_bytes=channel_payload_bytes(channels),
            end_ns=max(delivered.values(), default=sim.now))

    def teardown():
        close_all(cluster, sources)
        return sources + [sink]

    return Instance(cluster, start, sliced(10 * MILLIS), outcome, teardown)


# ------------------------------------------------------------- serving-mix
SERVING_RATE_PER_S = 10_000.0
SERVING_DURATION_MS = 320


def serving_sizes(rng: random.Random, n: int) -> List[int]:
    """``n`` request sizes in shuffled blocks of 100: 80 mice (64 B-4 KB,
    eager) and 20 bulk (64-512 KB, rendezvous), each log-uniform.

    Sampling is stratified within a block, so every seed offers nearly
    the same byte mix and the seed moves only which request gets which
    size.
    """
    sizes: List[int] = []
    while len(sizes) < n:
        block = [int(2 ** (6 + 6 * (i + rng.random()) / 80))
                 for i in range(80)]
        block += [int(2 ** (16 + 3 * (i + rng.random()) / 20))
                  for i in range(20)]
        rng.shuffle(block)
        sizes.extend(block)
    return sizes[:n]


def serving_mix(seed: int, check: bool) -> Instance:
    """XR-Serve: open-loop Poisson arrivals at 10k req/s from each of two
    source hosts, 80% mice and 20% bulk (see :func:`serving_sizes`),
    round-robin over 4 channels to one server.

    Request sizes come from the seed; arrival times from the model's own
    stream.  Latency runs from the due time; errors and requests still
    outstanding after the drain count as failed.
    """
    duration_ns = (20 if check else SERVING_DURATION_MS) * MILLIS
    cluster = build_cluster(3, seed=CLUSTER_SEED)
    view = _HarnessView(cluster)
    harness = ServingHarness(view, duration_ns=duration_ns,
                             window_ns=10 * MILLIS)
    # Twice the expected arrivals; the arrival stream is fixed by
    # CLUSTER_SEED, and its count stays far below that.
    sizes = iter(serving_sizes(random.Random(seed), int(
        2 * 2 * SERVING_RATE_PER_S * duration_ns / SECONDS)))
    spec = TenantSpec(
        name="mix", hosts=(0, 1), server_host=2,
        rate_per_s=SERVING_RATE_PER_S,
        classes=(TrafficClass(name="mix", size_fn=lambda _rng: next(sizes)),),
        n_channels=4, policy="round-robin")
    tenant = harness.add_tenant(spec)

    def drive(_done, timer):
        view.sim.timer = timer
        harness.run()

    def outcome():
        recorder = tenant.recorder
        latencies = [latency for values in tenant.class_latencies.values()
                     for latency in values]
        channels = [ch for chs in tenant._channels.values() for ch in chs]
        return Outcome(
            attempted=recorder.total_offered,
            failed=recorder.errors + tenant.outstanding,
            latencies_ns=latencies,
            app_bytes=channel_payload_bytes(channels),
            # Open loop: the offered horizon, not the drain, is the
            # simulated time the load took.
            end_ns=harness.start_ns + duration_ns)

    def teardown():
        contexts = tenant.contexts + list(harness.servers.values())
        close_all(cluster, contexts)
        return contexts

    return Instance(cluster, lambda: None, drive, outcome, teardown)


# ----------------------------------------------------------------- slicing
SLICE_LIMIT_NS = 60 * SECONDS


def run_sliced(sim, done, slice_ns: int, timer,
               limit: Optional[int] = None) -> None:
    """Run ``sim`` until ``done`` has fired, in fixed simulated-time slices
    each timed by ``timer``.

    Slicing does not change the schedule: no process runs between slices,
    and events keep their (time, priority, sequence) order.
    """
    if limit is None:
        limit = sim.now + SLICE_LIMIT_NS
    while not done.processed:
        if sim.now >= limit:
            raise RuntimeError(f"{done.name!r} did not fire by {limit} ns")
        bound = min(sim.now + slice_ns, limit)
        timer.run(lambda: sim.run(until=bound))


def sliced(slice_ns: int):
    """A ``drive`` that runs the load in slices of ``slice_ns``."""
    def drive(done, timer) -> None:
        run_sliced(done.sim, done, slice_ns, timer)
    return drive


class _SlicedSim:
    """The simulator as :class:`ServingHarness` sees it.

    ``ServingHarness.run`` drives the simulator itself with one
    ``run_until_event``; this view runs that call in timed slices, as the
    other workloads are run.  Everything else goes to the real simulator.
    """

    def __init__(self, sim, slice_ns: int) -> None:
        self._sim = sim
        self._slice_ns = slice_ns
        self.timer = None

    def __getattr__(self, name: str):
        return getattr(self._sim, name)

    def run_until_event(self, event, limit: Optional[int] = None):
        run_sliced(self._sim, event, self._slice_ns, self.timer, limit)
        if not event.ok:
            raise event.value
        return event.value


class _HarnessView:
    """A cluster whose ``sim`` is a :class:`_SlicedSim`; contexts it creates
    still run on the real simulator (``xrdma_context`` is the cluster's
    own bound method)."""

    def __init__(self, cluster: Cluster, slice_ns: int = 10 * MILLIS) -> None:
        self._cluster = cluster
        self.sim = _SlicedSim(cluster.sim, slice_ns)

    def __getattr__(self, name: str):
        return getattr(self._cluster, name)


WORKLOADS: Dict[str, Callable[[int, bool], Instance]] = {
    "essd-storm": essd_storm,
    "rpc-pingpong": rpc_pingpong,
    "fig10-incast": fig10_incast,
    "serving-mix": serving_mix,
}
