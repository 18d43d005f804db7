"""The three workloads: deployments, load generators and their checks.

Each workload builds its deployment through the public API (servers
embedded in this process on threads, as the repository's own benches
do), drives it with at most two load threads, and checks what came
back.  ``Workload.run`` returns the raw samples; ``run.py`` turns them
into metrics.

* ``analyst_warm`` — two analysts over loopback RPC against a warm
  cache; a sensor feed into a separate event sink rides on analyst 0.
* ``curator_cold`` — one in-process caller whose every policy misses
  the server's caches; a sensor thread feeds an in-process sink.
* ``stream_cluster`` — a 2-endpoint WAL-backed cluster taking an
  open-loop sensor stream while an analyst releases through the
  coordinator's durable budget.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import (
    ClusterBackend,
    ClusterEndpoint,
    OsdpClient,
    ReleaseRequest,
)
from repro.api.backends import RemoteBackend
from repro.api.wire import (
    encode_message,
    recv_message,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.core.accountant import PrivacyAccountant
from repro.data.columnar import ColumnarDatabase
from repro.data.telemetry import TelemetryConfig, telemetry_database
from repro.evaluation.metrics import mean_relative_error_rows
from repro.queries.histogram import HistogramInput, IntegerBinning
from repro.service.budget import DurableAccountant
from repro.service.fleet import build_table
from repro.service.rpc import RpcServer
from repro.service.server import ReleaseServer

from probes import (
    EpochAccountant,
    ExecutorProbe,
    IngestProbe,
    RegistryProbe,
    ServerProbe,
    Tracer,
    WalProbe,
)

#: A budget no run can exhaust: refusals would be failures.
TOTAL_EPSILON = 1e9

#: Sensor streams: retention window, generator wake-up period and
#: retention pass period, seconds.
WINDOW = 2.0
TICK = 0.020
RETENTION_PERIOD = 0.100

TELEMETRY = TelemetryConfig()
REGION = IntegerBinning("region", 0, TELEMETRY.n_regions, 1)
SENSOR = IntegerBinning("sensor", 0, TELEMETRY.n_sensors, 1)
OPT_IN = {"kind": "opt_in", "attr": "opt_in"}
OCCUPANCY = {"attr": "occupancy", "op": ">=", "value": 4}
WARM_MECHANISMS = ("laplace", "osdp_laplace", "osdp_laplace_l1", "osdp_rr")
COLD_MECHANISMS = WARM_MECHANISMS + ("dawa", "dawaz")


def warm_combos():
    """The 16 (mechanism, binning, policy) combinations of the warm mix."""
    return [
        (mechanism, binning.to_spec(), policy)
        for mechanism in WARM_MECHANISMS
        for binning in (REGION, SENSOR)
        for policy in (OPT_IN, OCCUPANCY)
    ]


@dataclass
class Phase:
    """Raw samples of one measured stretch."""

    started: float = 0.0
    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    rel_errors: list = field(default_factory=list)
    failures: int = 0
    acks: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late: list = field(default_factory=list)
    ingest_failures: int = 0
    flushes: int = 0
    expires: int = 0
    events: int = 0
    stats_delta: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _errors(kind: str, exc: BaseException, seen: list) -> None:
    if len(seen) < 5:
        seen.append(f"{kind}: {type(exc).__name__}: {exc}")
        print(f"[perfbench] {kind} failed: {exc!r}", file=sys.stderr)


class SensorFeed:
    """An open-loop telemetry stream into a streaming pipeline.

    Event ``j`` is due at ``t0 + j / rate`` (wall clock) and carries
    that time as its ``ts``; each ``pump`` stages every event due by
    now in the pipeline's group-commit buffer (which flushes on its
    size watermark), and runs ``pipeline.tick()`` (the retention
    pass) at most once per ``RETENTION_PERIOD``.
    ``pipeline.submit`` would run the retention pass after every
    event: once the window is full each pass finds an event or two
    aged out and issues an ``expire_prefix`` per event, and at these
    rates the stream falls behind.  A timer-driven tick, as the
    pipeline's docs suggest, bounds the expiries per second.
    Event values come from the seeded telemetry generator.
    """

    def __init__(self, seed: int, rate: float, capacity: int, pipeline, probe):
        columns = telemetry_database(
            capacity, TelemetryConfig(seed=seed)
        )
        self.columns = {
            name: np.asarray(columns[name]) for name in columns.column_names
        }
        self._lists = {
            name: col.tolist()
            for name, col in self.columns.items()
            if name != "ts"
        }
        self.rate = float(rate)
        self.capacity = capacity
        self.pipeline = pipeline
        self.probe = probe
        self._next_tick = 0.0
        self.t0 = None
        self.sent = 0
        self.late: list = []

    def start(self, t0: float) -> None:
        self.t0 = t0

    def pump(self) -> None:
        t0, rate = self.t0, self.rate
        now = time.time()
        due = min(self.capacity, int((now - t0) * rate) + 1)
        lists = self._lists
        sensor, region = lists["sensor"], lists["region"]
        occupancy, opt_in = lists["occupancy"], lists["opt_in"]
        stage = self.pipeline.buffer.append
        for j in range(self.sent, due):
            ts = t0 + j / rate
            self.late.append(time.time() - ts)
            stage(
                {
                    "ts": ts,
                    "sensor": sensor[j],
                    "region": region[j],
                    "occupancy": occupancy[j],
                    "opt_in": opt_in[j],
                }
            )
            self.sent = j + 1
        if now >= self._next_tick:
            self._next_tick = now + RETENTION_PERIOD
            self.pipeline.tick()

    def take_late(self) -> list:
        late, self.late = self.late, []
        return late

    def streamed(self) -> dict:
        """The columns of every event sent, as the sink holds them."""
        n = self.sent
        cols = {name: col[:n] for name, col in self.columns.items()}
        cols["ts"] = self.t0 + np.arange(n) / self.rate
        return cols


class _BytesReader:
    """A read-only socket over bytes, for replaying wire decoding."""

    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self._pos = 0

    def recv(self, n: int) -> bytes:
        chunk = bytes(self._view[self._pos : self._pos + n])
        self._pos += len(chunk)
        return chunk


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def replay_wire(tracer: Tracer, request, response, analyst: str) -> None:
    """Time the four wire codec steps of one loopback release on its
    own request and response (off the timed path)."""
    message = {"op": "release", "request": None, "analyst": analyst}

    def encode_request():
        message["request"] = request_to_wire(request)
        return encode_message(message)

    blob, t = _timed(encode_request)
    tracer.record("wire.encode", t)
    _, t = _timed(lambda: recv_message(_BytesReader(blob)))
    tracer.record("wire.request_decode", t)
    doc = {"ok": response_to_wire(response)}
    reply, t = _timed(lambda: encode_message(doc))
    tracer.record("wire.reply_encode", t)
    tracer.record("wire.reply_bytes", len(reply))
    _, t = _timed(
        lambda: response_from_wire(recv_message(_BytesReader(reply))["ok"])
    )
    tracer.record("wire.decode", t)


def _columns_db(columns: dict) -> ColumnarDatabase:
    return ColumnarDatabase({k: np.ascontiguousarray(v) for k, v in columns.items()})


def check_histograms(client, columns: dict, expired: int, failures: list, what: str):
    """The served ``true_histogram`` must equal a cold load of the
    retained rows (``columns`` minus the ``expired`` oldest)."""
    n = len(columns["region"]) - expired
    for binning in (REGION, SENSOR):
        served = np.asarray(client.true_histogram(binning.to_spec()))
        values = np.asarray(columns[binning.attribute])[expired:]
        cold = np.bincount(values, minlength=binning.n_bins)
        if not np.array_equal(served, cold):
            failures.append(
                f"{what}: true_histogram over {binning.attribute} differs "
                f"from a cold load of the {n} retained events"
            )


class Workload:
    """Shared run loop; subclasses build the deployment and check it."""

    name = ""
    #: Seconds of unmeasured load before the first phase.
    warmup = 1.0
    #: Charges per ledger epoch (see ``EpochAccountant``).
    ledger_epoch = 1000
    #: Offered releases per second of a paced analyst; ``None`` for a
    #: closed loop.
    release_rate = None

    def __init__(self, seed: int, root: str, tracer: Tracer, horizon: float):
        self.seed = int(seed)
        #: Longest the sensor may stream, seconds: sizes its event supply.
        self.horizon = float(horizon) + self.warmup + 10.0
        self.root = root
        self.tracer = tracer
        self.rng = np.random.default_rng([self.seed, 7])
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.registry = None
        self.accountant = None
        self.sensor: SensorFeed | None = None
        self.phase: Phase | None = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.closers: list = []

    # -- to override ------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def cache_stats(self) -> dict:
        return {}

    def transport_stats(self) -> dict:
        return {}

    def cluster_stats(self) -> dict:
        return {}

    def loops(self) -> list:
        """Target functions of the load threads."""
        raise NotImplementedError

    # -- shared pieces ----------------------------------------------------
    def workdir(self, name: str) -> str:
        path = os.path.join(self.root, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        for closer in reversed(self.closers):
            try:
                closer()
            except Exception as exc:  # keep tearing down the rest
                _errors("teardown", exc, self.errors)
        self.closers = []

    def release_once(self, client, request, on_response=None) -> None:
        """One release, timed and checked into the phase."""
        tracer = self.tracer
        phase = self.phase
        t0 = time.perf_counter()
        span = tracer.begin("api.release", rid=request.label) if tracer.enabled else None
        try:
            response = client.release(request)
        except Exception as exc:
            phase.failures += 1
            _errors("release", exc, self.errors)
            return
        finally:
            if span is not None:
                tracer.end(span)
        end = time.perf_counter()
        phase.latencies.append(end - t0)
        phase.ends.append(end)
        x = self.registry.truth.pop(request.label, None)
        estimates = np.asarray(response.estimates)
        if x is not None and estimates.ndim == 2 and estimates.shape[1] == len(x):
            phase.rel_errors.append(
                float(mean_relative_error_rows(x, estimates).mean())
            )
        else:
            self.failures.append(
                f"release {request.label}: no true histogram for the "
                f"response of shape {estimates.shape}"
            )
        if on_response is not None:
            on_response(request, response)

    def pump_sensor(self) -> None:
        try:
            self.sensor.pump()
        except Exception as exc:
            self.phase.ingest_failures += 1
            _errors("ingest", exc, self.errors)

    def sensor_feed(self, target, rate: float) -> SensorFeed:
        probe = IngestProbe(target, self.tracer)
        pipeline = OsdpClient(probe).open_stream(
            window=WINDOW, max_events=self.max_events
        )
        capacity = int(rate * self.horizon)
        return SensorFeed(self.seed, rate, capacity, pipeline, probe)

    def paced(self, step, period: float) -> None:
        """Run ``step`` every ``period`` seconds until stopped.  Steps
        that fall behind the schedule run back to back until they
        catch up, so the rate holds unless the work cannot keep up."""
        next_at = time.perf_counter()
        while not self._stop.is_set():
            step()
            next_at += period
            pause = next_at - time.perf_counter()
            if pause > 0:
                self._stop.wait(pause)

    def sensor_loop(self) -> None:
        self.paced(self.pump_sensor, TICK)

    # -- the run ----------------------------------------------------------
    def _begin_phase(self, traced: bool) -> Phase:
        phase = Phase()
        phase.started = time.perf_counter()
        self._snap = (
            self.cache_stats(),
            self.transport_stats(),
            self.cluster_stats(),
            self._ingest_counts(),
        )
        self.sensor.take_late()
        self.sensor.probe.take_acks()
        self.tracer.enabled = traced
        self.phase = phase
        return phase

    def _ingest_counts(self) -> tuple:
        probe = self.sensor.probe
        return (probe.flushes, probe.expires, probe.events)

    def _end_phase(self, phase: Phase) -> None:
        self.tracer.enabled = False
        phase.seconds = time.perf_counter() - phase.started
        phase.acks = self.sensor.probe.take_acks()
        phase.late = self.sensor.take_late()
        cache0, transport0, cluster0, ingest0 = self._snap
        cache1 = self.cache_stats()
        phase.stats_delta = {k: cache1[k] - cache0.get(k, 0) for k in cache1}
        phase.extra["transport"] = self.transport_stats()
        phase.extra["transport_start"] = transport0
        cluster1 = self.cluster_stats()
        phase.extra["cluster"] = {
            k: cluster1[k] - cluster0.get(k, 0) for k in cluster1
        }
        flushes, expires, events = self._ingest_counts()
        phase.flushes = flushes - ingest0[0]
        phase.expires = expires - ingest0[1]
        phase.events = events - ingest0[2]

    def _sample_transport(self, phase: Phase, seconds: float) -> None:
        """Sleep out a traced phase, snapshotting the servers' transport
        stats every second.  Their op latency percentiles cover only the
        latest 512 ops, so one snapshot at the end would see the last
        half second (and the ledger epoch it fell in), not the phase."""
        end = time.perf_counter() + seconds
        samples = phase.extra["transport_samples"] = []
        while (left := end - time.perf_counter()) > 0:
            time.sleep(min(1.0, left))
            samples.append(self.transport_stats())

    def run(self, seconds: float, traced: bool) -> list[Phase]:
        """Warm up, then one untraced phase (plus a traced one)."""
        self.sensor.start(time.time())
        self.phase = Phase()
        self._threads = [
            threading.Thread(target=loop, name=f"load-{i}", daemon=True)
            for i, loop in enumerate(self.loops())
        ]
        for thread in self._threads:
            thread.start()
        phases = []
        try:
            time.sleep(self.warmup)
            self.accountant.new_epoch()
            for is_traced in (False, True) if traced else (False,):
                phase = self._begin_phase(is_traced)
                if is_traced:
                    self._sample_transport(phase, seconds)
                else:
                    time.sleep(seconds)
                self._end_phase(phase)
                phases.append(phase)
        finally:
            self._stop.set()
            for thread in self._threads:
                thread.join(timeout=60)
                if thread.is_alive():
                    self.failures.append(f"load thread {thread.name} did not stop")
        try:
            self.sensor.pipeline.close()
        except Exception as exc:
            self.failures.append(f"final ingest flush failed: {exc!r}")
        return phases


# ----------------------------------------------------------------------
# analyst_warm
# ----------------------------------------------------------------------


class AnalystWarm(Workload):
    """Two analysts over loopback RPC; every histogram is a cache hit."""

    name = "analyst_warm"
    records = 1_000_000
    shards = 4
    sensor_rate = 2000.0
    max_events = 128
    sample_every = 64
    replay_every = 16

    def setup(self) -> None:
        tracer = self.tracer
        self.table = build_table("telemetry", self.records, seed=self.seed)
        self.registry = RegistryProbe(tracer)
        self.accountant = EpochAccountant(
            lambda i: PrivacyAccountant(
                total_epsilon=TOTAL_EPSILON,
                quotas={"analyst-0": TOTAL_EPSILON / 2, "analyst-1": TOTAL_EPSILON / 2},
            ),
            self.ledger_epoch,
            tracer,
        )
        self.server = ReleaseServer(
            self.table,
            n_shards=self.shards,
            registry=self.registry,
            accountant=self.accountant,
            executor=ExecutorProbe(tracer),
        )
        self.probe = ServerProbe(self.server, tracer)
        rpc = RpcServer(self.probe).start()
        self.closers.append(rpc.close)
        sink = RpcServer(
            ReleaseServer(telemetry_database(0), n_shards=1)
        ).start()
        self.closers.append(sink.close)
        self.clients = []
        for a in range(2):
            client = OsdpClient.connect(*rpc.address, analyst=f"analyst-{a}")
            self.closers.append(client.close)
            self.clients.append(client)
        self.sink_backend = RemoteBackend(*sink.address)
        self.closers.append(self.sink_backend.close)
        self.sensor = self.sensor_feed(self.sink_backend, self.sensor_rate)
        self.combos = warm_combos()
        self.samples: list = []
        self._seeds = [
            np.random.default_rng([self.seed, a]).integers(0, 2**62, 1 << 20)
            for a in range(2)
        ]
        self._count = [0, 0]
        self._sample_offset = int(self.rng.integers(0, self.sample_every))
        # Warm every cache the mix touches; the last reply is the first
        # good one the set-up time waits for.
        for mechanism, binning, policy in self.combos:
            self.clients[0].release(
                ReleaseRequest(mechanism, 0.5, binning, policy, seed=1, label="warm")
            )
        self.registry.truth.clear()

    def _request(self, a: int) -> ReleaseRequest:
        i = self._count[a]
        self._count[a] = i + 1
        mechanism, binning, policy = self.combos[(i + 8 * a) % len(self.combos)]
        seed = int(self._seeds[a][i % len(self._seeds[a])])
        return ReleaseRequest(
            mechanism, 0.5, binning, policy, n_trials=1, seed=seed,
            label=f"a{a}-{i:09d}",
        )

    def _analyst(self, a: int):
        client = self.clients[a]
        analyst = f"analyst-{a}"

        def on_response(request, response):
            i = self._count[a] - 1
            if i % self.sample_every == self._sample_offset:
                self.samples.append((request, np.asarray(response.estimates)))
            if self.tracer.enabled and i % self.replay_every == 0:
                replay_wire(self.tracer, request, response, analyst)

        def loop():
            # Analyst 0 is also the sensor gateway: between releases it
            # stages the events that fell due, once per tick.
            next_pump = time.perf_counter()
            while not self._stop.is_set():
                if a == 0 and time.perf_counter() >= next_pump:
                    self.pump_sensor()
                    next_pump = time.perf_counter() + TICK
                self.release_once(client, self._request(a), on_response)

        return loop

    def loops(self) -> list:
        return [self._analyst(0), self._analyst(1)]

    def cache_stats(self) -> dict:
        return self.server.stats.as_dict()

    def transport_stats(self) -> dict:
        return self.clients[0].backend.transport_stats()

    def check(self) -> None:
        reference = ReleaseServer(self.table, n_shards=self.shards)
        for request, estimates in self.samples:
            expected = reference.handle(request).estimates
            if (
                expected.dtype != estimates.dtype
                or expected.shape != estimates.shape
                or expected.tobytes() != estimates.tobytes()
            ):
                self.failures.append(
                    f"loopback release {request.label} is not bit-identical "
                    "to ReleaseServer.handle in process"
                )
        if not self.samples:
            self.failures.append("no loopback responses were sampled")
        check_histograms(
            self.sink_backend,
            self.sensor.streamed(),
            self.sensor.probe.expired,
            self.failures,
            "event sink",
        )


# ----------------------------------------------------------------------
# curator_cold
# ----------------------------------------------------------------------


class CuratorCold(Workload):
    """One in-process caller; every policy is new, so every mask misses."""

    name = "curator_cold"
    records = 2_000_000
    shards = 4
    bins = 4096
    n_trials = 10
    sensor_rate = 2000.0
    max_events = 128
    ledger_epoch = 200

    def setup(self) -> None:
        tracer = self.tracer
        self.table = build_table("income", self.records, seed=self.seed)
        self.registry = RegistryProbe(tracer)
        self.accountant = EpochAccountant(
            lambda i: PrivacyAccountant(total_epsilon=TOTAL_EPSILON),
            self.ledger_epoch,
            tracer,
        )
        self.client = OsdpClient.sharded(
            self.table,
            n_shards=self.shards,
            executor=ExecutorProbe(tracer),
            registry=self.registry,
            accountant=self.accountant,
        )
        self.closers.append(self.client.close)
        self.binning = IntegerBinning("value", 0, self.bins, 1).to_spec()
        # A fresh threshold per request: no policy repeats within a run,
        # so beyond the 128-key cache every mask misses.
        self.thresholds = self.rng.permutation(self.bins)
        self._count = 0
        sink = OsdpClient.in_process(telemetry_database(0))
        self.sink = sink
        self.closers.append(sink.close)
        self.sensor = self.sensor_feed(sink.backend, self.sensor_rate)
        # Warm the bin indices with one release; its reply is the
        # first good one.
        self.client.release(self._request())
        self.registry.truth.clear()

    def _request(self) -> ReleaseRequest:
        i = self._count
        self._count = i + 1
        k = int(self.thresholds[i % self.bins])
        return ReleaseRequest(
            COLD_MECHANISMS[i % len(COLD_MECHANISMS)],
            0.5,
            self.binning,
            {"attr": "value", "op": "<=", "value": k},
            n_trials=self.n_trials,
            seed=int(self.seed * 1_000_003 + i),
            label=f"c-{i:09d}",
        )

    def loops(self) -> list:
        expected = (self.n_trials, self.bins)

        def on_response(request, response):
            estimates = np.asarray(response.estimates)
            if estimates.shape != expected or not np.all(np.isfinite(estimates)):
                self.failures.append(
                    f"release {request.label}: estimates of shape "
                    f"{estimates.shape} (want {expected}) or not finite"
                )

        def caller():
            while not self._stop.is_set():
                self.release_once(self.client, self._request(), on_response)

        return [caller, self.sensor_loop]

    def cache_stats(self) -> dict:
        return self.client.backend.stats()

    def check(self) -> None:
        check_histograms(
            self.sink,
            self.sensor.streamed(),
            self.sensor.probe.expired,
            self.failures,
            "event sink",
        )


# ----------------------------------------------------------------------
# stream_cluster
# ----------------------------------------------------------------------


class StreamCluster(Workload):
    """A 2-endpoint WAL-backed cluster: open-loop ingest beside reads.

    The analyst is paced at ``release_rate`` rather than closed loop.
    Every write (a flush or an expiry, about 18 a second) bumps a
    shard, and the next release of each cached combination refills
    it.  In a closed loop the share of releases that refill depends on
    how many releases fit between two writes, so it moved with the
    host's speed and amplified it; at a fixed rate well below capacity
    each release does the same work, whatever the machine's speed.
    """

    name = "stream_cluster"
    records = 600_000
    shards_per_endpoint = 4
    sensor_rate = 2000.0
    max_events = 256
    warmup = 3.0
    release_rate = 200.0

    def setup(self) -> None:
        tracer = self.tracer
        table = build_table("telemetry", self.records, seed=self.seed)
        self.initial = {
            name: np.asarray(table[name]) for name in table.column_names
        }
        half = self.records // 2
        self.endpoint_probes = []
        self.observers = []
        endpoints = []
        for i, (lo, hi) in enumerate(((0, half), (half, self.records))):
            part = _columns_db({k: v[lo:hi] for k, v in self.initial.items()})
            # No executor probe here: WAL recovery and replica resync
            # replace the database, which an attached executor refuses.
            server = ReleaseServer(part, n_shards=self.shards_per_endpoint)
            wal = WalProbe(self.workdir(f"wal-{i}"), tracer)
            wal.recover(server)
            probe = ServerProbe(server, tracer, name=f"ep{i}")
            rpc = RpcServer(probe, wal=wal).start()
            self.closers.append(rpc.close)
            self.endpoint_probes.append((probe, rpc))
            observer = RemoteBackend(*rpc.address)
            self.closers.append(observer.close)
            self.observers.append(observer)
            endpoints.append(
                ClusterEndpoint(*rpc.address, shard_range=i, name=f"ep{i}")
            )
        budget_root = self.workdir("budget")
        self.budget_root = budget_root
        self.registry = RegistryProbe(tracer)
        self.accountant = EpochAccountant(
            lambda i: DurableAccountant(
                os.path.join(budget_root, f"epoch-{i:04d}"),
                total_epsilon=TOTAL_EPSILON,
            ),
            self.ledger_epoch,
            tracer,
        )
        self.closers.append(self.accountant.close)
        self.backend = ClusterBackend(
            endpoints, registry=self.registry, accountant=self.accountant
        )
        self.closers.append(self.backend.close)
        self.client = OsdpClient(self.backend, analyst="analyst-s")
        self.sensor = self.sensor_feed(self.backend, self.sensor_rate)
        self.combos = warm_combos()
        self._seeds = np.random.default_rng([self.seed, 3]).integers(0, 2**62, 1 << 20)
        self._count = 0
        self.acked = 0
        for mechanism, binning, policy in self.combos:
            self.client.release(
                ReleaseRequest(mechanism, 0.5, binning, policy, seed=1, label="warm")
            )
            self.acked += 1
        self.registry.truth.clear()

    def _request(self) -> ReleaseRequest:
        i = self._count
        self._count = i + 1
        mechanism, binning, policy = self.combos[i % len(self.combos)]
        return ReleaseRequest(
            mechanism, 0.5, binning, policy, n_trials=1,
            seed=int(self._seeds[i % len(self._seeds)]),
            label=f"s-{i:09d}",
        )

    def loops(self) -> list:
        tracer = self.tracer

        def on_response(request, response):
            self.acked += 1
            if not tracer.enabled:
                return
            pairs = []
            for probe, _rpc in self.endpoint_probes:
                pairs.extend(probe.pairs.pop(request.label, ()))
            if len(pairs) == len(self.endpoint_probes):
                def merge():
                    hist = HistogramInput.from_shard_counts(pairs)
                    hist.ns_support_sorted
                _, t = _timed(merge)
                tracer.record("cluster.merge", t)

        def release():
            request = self._request()
            for probe, _rpc in self.endpoint_probes:
                probe.rid = request.label
            self.release_once(self.client, request, on_response)

        return [
            lambda: self.paced(release, 1.0 / self.release_rate),
            self.sensor_loop,
        ]

    def cache_stats(self) -> dict:
        total: dict = {}
        for probe, _rpc in self.endpoint_probes:
            for k, v in probe.stats.as_dict().items():
                total[k] = total.get(k, 0) + v
        return total

    def transport_stats(self) -> dict:
        return {
            probe.name: stats.transport_stats()
            for (probe, _rpc), stats in zip(self.endpoint_probes, self.observers)
        }

    def cluster_stats(self) -> dict:
        return self.backend.cluster_stats()

    def check(self) -> None:
        streamed = self.sensor.streamed()
        columns = {
            name: np.concatenate([self.initial[name], streamed[name]])
            for name in ("region", "sensor")
        }
        check_histograms(
            self.backend, columns, self.sensor.probe.expired, self.failures,
            "cluster",
        )
        accountant = self.accountant
        lengths = dict(accountant.retired)
        lengths[len(accountant.retired)] = len(accountant.inner.ledger)
        if sum(lengths.values()) != self.acked:
            self.failures.append(
                f"ledger holds {sum(lengths.values())} charges for "
                f"{self.acked} acked releases"
            )
        accountant.close()
        for index, length in lengths.items():
            directory = os.path.join(self.budget_root, f"epoch-{index:04d}")
            with DurableAccountant(directory, total_epsilon=TOTAL_EPSILON) as recovered:
                if len(recovered.ledger) != length:
                    self.failures.append(
                        f"budget epoch {index}: journal recovers "
                        f"{len(recovered.ledger)} charges, ledger had {length}"
                    )


WORKLOADS = {
    cls.name: cls for cls in (AnalystWarm, CuratorCold, StreamCluster)
}

