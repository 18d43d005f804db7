"""Span recording and the probes the benchmark installs at layer seams.

Every probe sits on a seam the program already exposes: the
``accountant=``/``registry=``/``executor=`` arguments of
``ReleaseServer`` and ``ClusterBackend``, the server object and the
``wal=`` argument handed to ``RpcServer``, and the client handed to
``open_stream``.  No program file is changed.  With the tracer off the
probes only delegate (plus the bookkeeping the end-to-end metrics
need: ledger epochs, the release's true histogram and ingest acks);
with it on they record spans.

A span is ``[name, request id, start, end, parent index]`` in a
per-thread list; the parent is the span open on the same thread when
it began.  Spans stay in memory until the run ends.  Spans of one request share the request id, which is the
release's ``label`` (it crosses the socket inside the request).
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

import numpy as np

from repro.core.accountant import AnalystAccountant
from repro.service.server import default_registry
from repro.service.wal import WriteAheadLog, payload_events

_now = time.perf_counter


class Tracer:
    """In-memory spans and sampled values; off until ``enabled``."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self.values: dict[str, list] = defaultdict(list)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append(state[0])
        return state

    def begin(self, name: str, rid=None) -> int:
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        if rid is None and parent >= 0:
            rid = spans[parent][1]
        index = len(spans)
        spans.append([name, rid, _now(), 0.0, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        spans, stack = self._state()
        spans[index][3] = _now()
        stack.pop()

    def mark(self, name: str) -> None:
        """A zero-length span: a point in time inside the open span."""
        spans, stack = self._state()
        t = _now()
        parent = stack[-1] if stack else -1
        rid = spans[parent][1] if parent >= 0 else None
        spans.append([name, rid, t, t, parent])

    def record(self, name: str, value: float) -> None:
        self.values[name].append(value)

    def spans(self) -> list[list]:
        """Every finished span with its parent and self time.

        ``[name, rid, start, end, parent_name, parent_start,
        self_seconds]``; self time is the duration minus the time its
        child spans cover.
        """
        out = []
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for spans in threads:
            child = [0.0] * len(spans)
            for span in spans:
                if span[4] >= 0 and span[3]:
                    child[span[4]] += span[3] - span[2]
            for i, (name, rid, t0, t1, parent) in enumerate(spans):
                if not t1:
                    continue
                parent_name, parent_start = (
                    (spans[parent][0], spans[parent][2])
                    if parent >= 0
                    else (None, t0)
                )
                out.append(
                    [name, rid, t0, t1, parent_name, parent_start,
                     t1 - t0 - child[i]]
                )
        return out


class EpochAccountant:
    """The ``accountant=`` seam: a fresh ledger every ``epoch`` charges.

    ``PrivacyAccountant.spent`` sums the whole ledger, so a charge
    costs more the longer a server has run.  A closed loop over a
    fixed time would give a faster commit a longer ledger and so a
    slower charge.  Starting a new accountant (a new budget period)
    after every ``epoch`` charges gives both commits of an A/B the same
    ledger lengths, whatever their speed; the charge times at the
    start and end of each epoch show the O(ledger) cost.
    """

    def __init__(self, make, epoch: int, tracer: Tracer):
        self._make = make
        self.epoch = int(epoch)
        self._tracer = tracer
        self._lock = threading.Lock()
        self._index = 0
        self._inner = make(0)
        self._in_epoch = 0
        #: (epoch index, ledger length) of every retired accountant.
        self.retired: list[tuple[int, int]] = []

    @property
    def inner(self):
        return self._inner

    def new_epoch(self) -> None:
        with self._lock:
            self._rotate()

    def _rotate(self) -> None:
        old = self._inner
        self.retired.append((self._index, len(old.ledger)))
        close = getattr(old, "close", None)
        if close is not None:
            close()
        self._index += 1
        self._inner = self._make(self._index)
        self._in_epoch = 0

    def charge(self, policy, epsilon, label="", analyst=""):
        with self._lock:
            if self._in_epoch >= self.epoch:
                self._rotate()
            inner = self._inner
            tracer = self._tracer
            if not tracer.enabled:
                inner.charge(policy, epsilon, label=label, analyst=analyst)
            else:
                journal = getattr(inner, "journal", None)
                path = (
                    None
                    if journal is None
                    else os.path.join(journal.directory, journal.LOG_NAME)
                )
                before = _file_size(path)
                span = tracer.begin("budget.charge")
                t0 = _now()
                try:
                    inner.charge(policy, epsilon, label=label, analyst=analyst)
                finally:
                    tracer.end(span)
                tracer.record("budget.charge_at", (self._in_epoch, _now() - t0))
                after = _file_size(path)
                if path is not None and after > before:
                    tracer.record("budget.journal_bytes", after - before)
            self._in_epoch += 1

    @property
    def remaining(self) -> float:
        if not self._tracer.enabled:
            return self._inner.remaining
        span = self._tracer.begin("budget.remaining")
        try:
            return self._inner.remaining
        finally:
            self._tracer.end(span)

    def quota_remaining(self, analyst):
        if not self._tracer.enabled:
            return self._inner.quota_remaining(analyst)
        span = self._tracer.begin("budget.remaining")
        try:
            return self._inner.quota_remaining(analyst)
        finally:
            self._tracer.end(span)

    @property
    def total_epsilon(self) -> float:
        return self._inner.total_epsilon

    @property
    def spent(self) -> float:
        return self._inner.spent

    def spent_by(self, analyst):
        return self._inner.spent_by(analyst)

    def view(self) -> dict:
        return self._inner.view()

    def for_analyst(self, analyst):
        return AnalystAccountant(self, analyst) if analyst else self

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _file_size(path) -> int:
    if path is None:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class RegistryProbe:
    """The ``registry=`` seam: the standard mechanisms, observed.

    Every release's true histogram ``x`` is kept under its label (the
    utility metric compares the release against exactly the data it
    was drawn from); with the tracer on, ``create`` marks the end of
    histogram assembly and ``run`` is a span per mechanism.
    """

    def __init__(self, tracer: Tracer):
        self._inner = default_registry()
        self._tracer = tracer
        self.truth: dict[str, np.ndarray] = {}

    def create(self, name, epsilon):
        if self._tracer.enabled:
            self._tracer.mark("server.assembled")
        return _MechanismProbe(self._inner.create(name, epsilon), name, self)

    def names(self):
        return self._inner.names()

    def __contains__(self, name) -> bool:
        return name in self._inner


class _MechanismProbe:
    __slots__ = ("_mechanism", "_name", "_probe")

    def __init__(self, mechanism, name, probe: RegistryProbe):
        self._mechanism = mechanism
        self._name = name
        self._probe = probe

    def run(self, hist, rng, **kwargs):
        self._probe.truth[kwargs.get("label", "")] = hist.x
        tracer = self._probe._tracer
        if not tracer.enabled:
            return self._mechanism.run(hist, rng, **kwargs)
        span = tracer.begin("mechanisms.run." + self._name)
        try:
            return self._mechanism.run(hist, rng, **kwargs)
        finally:
            tracer.end(span)


class ExecutorProbe:
    """The ``executor=`` seam: shard calls run serially, as without
    an executor, each one a span when the tracer is on."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def map(self, fn, shards):
        tracer = self._tracer
        if not tracer.enabled:
            return [fn(shard) for shard in shards]
        kind = getattr(fn, "__name__", "")
        name = {
            "evaluate_batch": "data.shard_call.mask",
            "bin_indices": "data.shard_call.index",
        }.get(kind, "data.shard_call.other")
        out = []
        for shard in shards:
            span = tracer.begin(name)
            try:
                out.append(fn(shard))
            finally:
                tracer.end(span)
        return out


class ServerProbe:
    """The server object handed to ``RpcServer``: a ``ReleaseServer``
    whose ``handle`` and ``histogram_counts`` are spans when tracing.

    ``rid`` names the request a ``hist_counts`` call serves (the
    coordinator's caller sets it); the returned count pair is kept per
    request so the coordinator's merge can be replayed.
    """

    def __init__(self, server, tracer: Tracer, name: str = "server"):
        self._server = server
        self._tracer = tracer
        self.name = name
        self.rid = None
        self.pairs: dict = defaultdict(list)

    def __getattr__(self, attr):
        return getattr(self._server, attr)

    def handle(self, request):
        tracer = self._tracer
        if not tracer.enabled:
            return self._server.handle(request)
        span = tracer.begin("server.handle", rid=request.label)
        try:
            return self._server.handle(request)
        finally:
            tracer.end(span)

    def histogram_counts(self, binning, policy):
        tracer = self._tracer
        if not tracer.enabled:
            return self._server.histogram_counts(binning, policy)
        rid = self.rid
        span = tracer.begin("server.hist_counts." + self.name, rid=rid)
        try:
            pair = self._server.histogram_counts(binning, policy)
        finally:
            tracer.end(span)
        self.pairs[rid].append(pair)
        return pair


class WalProbe(WriteAheadLog):
    """The ``wal=`` seam: the durable WAL, its ``log`` a span when
    tracing, with the bytes and events each entry adds."""

    def __init__(self, directory, tracer: Tracer, **kwargs):
        super().__init__(directory, **kwargs)
        self._tracer = tracer
        self._path = os.path.join(self.directory, self.LOG_NAME)

    def log(self, wop, payload, write_id=None, seq=None):
        tracer = self._tracer
        if not tracer.enabled:
            return super().log(wop, payload, write_id=write_id, seq=seq)
        before = _file_size(self._path)
        span = tracer.begin("wal.log." + wop)
        try:
            return super().log(wop, payload, write_id=write_id, seq=seq)
        finally:
            tracer.end(span)
            grown = _file_size(self._path) - before
            if wop == "append_records" and grown > 0:
                events = payload_events(payload)
                if events:
                    tracer.record("wal.bytes_per_event", grown / events)


class IngestProbe:
    """The client handed to ``open_stream``: forwards the pipeline's
    ``append_records``/``expire_prefix`` and records every event's ack.

    An event's ``ts`` is the wall-clock time it was due to be sent, so
    its ack latency runs from then until its group commit returned.
    """

    def __init__(self, target, tracer: Tracer):
        self._target = target
        self._tracer = tracer
        self.acks: list[np.ndarray] = []
        self._lock = threading.Lock()
        self.events = 0
        self.flushes = 0
        self.expires = 0
        self.expired = 0

    def append_records(self, records) -> int:
        tracer = self._tracer
        span = tracer.begin("ingest.flush") if tracer.enabled else None
        try:
            result = self._target.append_records(records)
        finally:
            if span is not None:
                tracer.end(span)
        acked_at = time.time()
        if isinstance(records, list):
            ts = np.array([r["ts"] for r in records], dtype=np.float64)
        else:
            ts = np.asarray(records["ts"], dtype=np.float64)
        with self._lock:
            self.acks.append(acked_at - ts)
        self.events += len(ts)
        self.flushes += 1
        return result

    def expire_prefix(self, n_records: int):
        tracer = self._tracer
        span = tracer.begin("ingest.expire") if tracer.enabled else None
        try:
            result = self._target.expire_prefix(n_records)
        finally:
            if span is not None:
                tracer.end(span)
        self.expires += 1
        self.expired += int(n_records)
        return result

    def take_acks(self) -> np.ndarray:
        with self._lock:
            acks, self.acks = self.acks, []
        return np.concatenate(acks) if acks else np.zeros(0)

    def close(self) -> None:
        pass
