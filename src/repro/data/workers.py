"""Shard-resident worker runtime: persistent processes, specs on the wire.

:class:`repro.data.sharding.ShardedColumnarDatabase` with a
:class:`concurrent.futures.ProcessPoolExecutor` re-pickles every shard's
columns on every ``map_shards`` call — at million-record scale the wire
cost dwarfs the mask kernels it parallelizes.  :class:`ShardWorkerPool`
inverts the data flow:

* **Columns cross the wire once — or not at all.**  By default (and
  whenever the platform offers POSIX shared memory), each shard's
  buffers are placed into :class:`repro.data.store.ColumnStore`
  shared-memory segments and the worker receives only a ~100-byte
  **descriptor**: it attaches the segments by name — zero copy, O(1)
  startup bytes regardless of the record count, and co-hosted pools
  over a shared database (``sharded.share()``) reference one physical
  copy.  Columns that cannot place (object dtype) fall back to the
  one-time pickle shipment; ``shm=False`` forces it.  Incremental
  updates (:meth:`append_shard_chunk`, :meth:`expire_shard_prefix`)
  ship only the delta either way — an shm append additionally remaps
  the shard into fresh segments the worker re-attaches, an shm expire
  is a pure view trim on both sides.
* **Requests are specs.**  A mask, bin-index, histogram or
  ``(x, x_ns)`` request is a small dict built from the policy/binning
  wire format (:func:`repro.core.policy_language.policy_to_spec`,
  :func:`repro.queries.histogram.binning_to_spec`); the worker rebuilds
  the object and evaluates it against its resident columns.  Responses
  are result arrays only.  Per-request traffic is therefore independent
  of the shard size (``stats`` proves it: ``request_bytes`` vs
  ``startup_bytes``).
* **Workers cache by spec.**  Each worker holds mask, bin-index and
  ``(x, x_ns)`` count-pair caches keyed by the specs' canonical
  rendering, so a burst of requests over the same policy pays the
  kernel once per shard and repeated histogram traffic is O(1) per
  worker — the worker-side mirror of the release server's caches
  (``worker_cache_stats()`` reports exact hit/miss counts).  Cold
  count pairs are built by the fused counting kernel of
  :mod:`repro.mechanisms.kernels` on the resident shard (one pass
  producing both histograms).  Appends
  extend cached arrays by evaluating only the new chunk and advance
  count pairs by the chunk's own pair (policies and binnings are
  per-record and counts are additive, so both are bit-identical to
  recomputation); expires slice arrays and subtract the expired
  prefix's pair.
* **Failover, not failure.**  The parent keeps the authoritative
  resident-shard copies; a worker that dies mid-request is respawned
  from its copy and the request resent, so a killed process degrades
  to a recompute on cold caches — never a crashed request.  Fan-out
  replies drain in arrival order
  (:func:`multiprocessing.connection.wait`) and reassemble into shard
  order, overlapping parent-side deserialization/merge with the slower
  shards' compute.

The pool plugs in behind ``ShardedColumnarDatabase.map_shards`` as an
executor: callables the pool recognizes (``Policy.evaluate_batch``,
``binning.bin_indices``, the histogram partials of
:mod:`repro.queries.histogram` and :mod:`repro.data.sharding`) are
translated to spec requests; anything else falls back to pickling the
callable itself (still without re-shipping the shard).  Every result is
**bit-identical** to serial ``map_shards``: the spec round-trip is
lossless and the kernels run unchanged, just in another process.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.policy import NON_SENSITIVE, Policy, SpecUnsupported
from repro.core.policy_language import (
    PolicySpecError,
    canonical_spec,
    policy_from_spec,
    policy_to_spec,
)
from repro.data.columnar import ColumnarDatabase
from repro.data.store import ColumnStore, placeable, shm_available

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

# Growth factor for segments created (or remapped) on the append path:
# fresh segments over-allocate by this fraction of their live size so
# subsequent appends extend in place behind the length headers
# (``ColumnStore.try_append``) instead of remapping every call.
APPEND_HEADROOM = 1.0


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


class _WorkerState:
    """One worker's resident shard plus its spec-keyed caches.

    Every cache is LRU-bounded at ``cache_limit`` distinct specs — the
    worker-side mirror of the release server's ``cache_limit`` — so a
    long-lived pool serving many distinct per-analyst policies cannot
    grow a worker's memory without bound.
    """

    def __init__(self, shard: ColumnarDatabase, cache_limit: int = 128):
        self.shard = shard
        self.cache_limit = max(2, int(cache_limit))
        # canonical spec -> (spec dict, per-record array); the spec is
        # kept so incremental appends can evaluate it on the new chunk.
        self.masks: dict[str, tuple[dict, np.ndarray]] = {}
        self.indices: dict[str, tuple[dict, np.ndarray]] = {}
        # (canonical binning spec, canonical policy spec) ->
        # (binning spec, policy spec, n_bins, (x, x_ns)); maintained
        # through appends/expires by the same delta discipline as the
        # per-record caches, so repeated histogram traffic over a warm
        # key costs O(1) per worker, not a bincount pass.
        self.counts: dict[
            tuple[str, str], tuple[dict, dict, int, tuple]
        ] = {}
        self.cache_stats = {
            "mask_hits": 0,
            "mask_misses": 0,
            "index_hits": 0,
            "index_misses": 0,
            "counts_hits": 0,
            "counts_misses": 0,
        }

    def _store(self, cache: dict, key, value) -> None:
        """Insert at the LRU back, evicting the front beyond the bound."""
        cache[key] = value
        while len(cache) > self.cache_limit:
            cache.pop(next(iter(cache)))

    @staticmethod
    def _touch(cache: dict, key):
        """LRU hit: move the entry to the back of the eviction order."""
        value = cache.pop(key)
        cache[key] = value
        return value

    def mask(self, spec: dict) -> np.ndarray:
        key = canonical_spec(spec)
        if key not in self.masks:
            self.cache_stats["mask_misses"] += 1
            arr = policy_from_spec(spec).evaluate_batch(self.shard)
            self._store(self.masks, key, (spec, arr))
            return arr
        self.cache_stats["mask_hits"] += 1
        return self._touch(self.masks, key)[1]

    def bin_indices(self, spec: dict) -> np.ndarray:
        from repro.queries.histogram import binning_from_spec

        key = canonical_spec(spec)
        if key not in self.indices:
            self.cache_stats["index_misses"] += 1
            arr = binning_from_spec(spec).bin_indices(self.shard)
            self._store(self.indices, key, (spec, arr))
            return arr
        self.cache_stats["index_hits"] += 1
        return self._touch(self.indices, key)[1]

    def hist_counts(
        self, binning_spec: dict, policy_spec: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        from repro.queries.histogram import binning_from_spec, counts_from_mask

        key = (canonical_spec(binning_spec), canonical_spec(policy_spec))
        if key in self.counts:
            self.cache_stats["counts_hits"] += 1
            return self._touch(self.counts, key)[3]
        self.cache_stats["counts_misses"] += 1
        n_bins = binning_from_spec(binning_spec).n_bins
        pair = counts_from_mask(
            self.bin_indices(binning_spec),
            self.mask(policy_spec) == NON_SENSITIVE,
            n_bins,
        )
        self._store(
            self.counts, key, (binning_spec, policy_spec, n_bins, pair)
        )
        return pair

    def histogram(self, binning_spec: dict, n_bins: int) -> np.ndarray:
        return self.shard.histogram_from_indices(
            self.bin_indices(binning_spec), n_bins
        )

    def append(
        self,
        chunk: ColumnarDatabase,
        new_shard: ColumnarDatabase | None = None,
    ) -> int:
        """Extend the resident shard and every cached array by the chunk.

        Masks and bin indices are per-record, so evaluating the cached
        specs on the chunk alone and concatenating is bit-identical to
        recomputing over the extended shard — the caches stay warm at
        O(chunk) cost.  Count pairs are additive over any record
        partition, so each cached ``(x, x_ns)`` advances by the chunk's
        own pair.  ``new_shard`` (the shm remap path) substitutes an
        already-extended shard — freshly attached segment views whose
        values equal ``concat(shard, chunk)`` — for the local
        concatenation; the cache advance is the same either way.
        """
        from repro.queries.histogram import binning_from_spec, counts_from_mask

        self.shard = (
            ColumnarDatabase.concat([self.shard, chunk])
            if new_shard is None
            else new_shard
        )
        for key, (spec, arr) in list(self.masks.items()):
            extra = policy_from_spec(spec).evaluate_batch(chunk)
            self.masks[key] = (spec, np.concatenate([arr, extra]))
        for key, (spec, arr) in list(self.indices.items()):
            extra = binning_from_spec(spec).bin_indices(chunk)
            self.indices[key] = (spec, np.concatenate([arr, extra]))
        for key, (bspec, pspec, n_bins, (x, x_ns)) in list(self.counts.items()):
            dx, dx_ns = counts_from_mask(
                binning_from_spec(bspec).bin_indices(chunk),
                policy_from_spec(pspec).evaluate_batch(chunk) == NON_SENSITIVE,
                n_bins,
            )
            self.counts[key] = (bspec, pspec, n_bins, (x + dx, x_ns + dx_ns))
        return len(self.shard)

    def expire(self, n: int) -> int:
        """Drop the first ``n`` resident records; slice cached arrays.

        Cached count pairs subtract the expired prefix's own pair —
        computed from the cached per-record arrays *before* they are
        sliced — so they stay exact without a recount.  A count entry
        whose per-record arrays are somehow absent is dropped instead
        (the next request recomputes it).
        """
        from repro.queries.histogram import counts_from_mask

        for key, (bspec, pspec, n_bins, (x, x_ns)) in list(self.counts.items()):
            bkey, pkey = key
            index_hit = self.indices.get(bkey)
            mask_hit = self.masks.get(pkey)
            if index_hit is None or mask_hit is None:
                del self.counts[key]
                continue
            dx, dx_ns = counts_from_mask(
                index_hit[1][:n], mask_hit[1][:n] == NON_SENSITIVE, n_bins
            )
            self.counts[key] = (bspec, pspec, n_bins, (x - dx, x_ns - dx_ns))
        self.shard = self.shard.slice_records(n, len(self.shard))
        self.masks = {
            key: (spec, arr[n:]) for key, (spec, arr) in self.masks.items()
        }
        self.indices = {
            key: (spec, arr[n:]) for key, (spec, arr) in self.indices.items()
        }
        return len(self.shard)


def _attach_trimmed(descriptor: dict, trim: int) -> tuple:
    """Attach a descriptor's segments; re-apply a prefix trim.

    Expired prefixes never move bytes: the parent serves views past the
    dead records and a (re)spawned worker reproduces the same view by
    slicing its freshly attached database.  Returns ``(store, shard)``.
    """
    store = ColumnStore.attach(descriptor)
    shard = store.database
    if trim:
        shard = shard.slice_records(trim, len(shard))
    return store, shard


def _worker_main(conn) -> None:
    """The worker loop: receive pickled requests, answer until 'stop'."""
    state: _WorkerState | None = None
    store: ColumnStore | None = None

    def swap_store(new_store: ColumnStore | None) -> None:
        nonlocal store
        if store is not None:
            store.close()  # attached, never the owner: drops views only
        store = new_store

    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except EOFError:
            swap_store(None)
            return
        op = msg[0]
        if op == "stop":
            swap_store(None)
            conn.send_bytes(pickle.dumps(("ok", None), _PICKLE_PROTOCOL))
            return
        try:
            if op == "shard":
                swap_store(None)
                state = _WorkerState(msg[1], *msg[2:3])
                result = len(state.shard)
            elif op == "shard_shm":
                new_store, shard = _attach_trimmed(msg[1], msg[3])
                swap_store(new_store)
                state = _WorkerState(shard, msg[2])
                result = len(state.shard)
            elif state is None:
                raise RuntimeError("worker has no resident shard")
            elif op == "append_shm":
                new_store, shard = _attach_trimmed(msg[2], 0)
                result = state.append(msg[1], new_shard=shard)
                swap_store(new_store)
            elif op == "extend_shm":
                # The parent extended the shared headroom segments in
                # place; re-reading the length headers is the whole
                # re-attach.  msg[2] is the accumulated prefix trim.
                if store is None:
                    raise RuntimeError(
                        "extend_shm without attached segments"
                    )
                full = store.refresh()
                shard = (
                    full.slice_records(msg[2], len(full)) if msg[2] else full
                )
                result = state.append(msg[1], new_shard=shard)
            elif op == "mask":
                result = state.mask(msg[1])
            elif op == "bin_indices":
                result = state.bin_indices(msg[1])
            elif op == "hist_counts":
                result = state.hist_counts(msg[1], msg[2])
            elif op == "histogram":
                result = state.histogram(msg[1], msg[2])
            elif op == "call":
                result = msg[1](state.shard)
            elif op == "append":
                result = state.append(msg[1])
            elif op == "expire":
                result = state.expire(msg[1])
            elif op == "cache_stats":
                result = dict(
                    state.cache_stats,
                    mask_entries=len(state.masks),
                    index_entries=len(state.indices),
                    counts_entries=len(state.counts),
                )
            else:
                raise ValueError(f"unknown worker op {op!r}")
            reply = ("ok", result)
        except BaseException as exc:  # ship the failure, keep serving
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            payload = pickle.dumps(reply, _PICKLE_PROTOCOL)
        except Exception as exc:
            # An unpicklable result (possible on the generic "call"
            # path) must not kill the worker — ship the failure too.
            payload = pickle.dumps(
                ("err", f"unpicklable result: {type(exc).__name__}: {exc}"),
                _PICKLE_PROTOCOL,
            )
        conn.send_bytes(payload)


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


class WorkerError(RuntimeError):
    """A shard worker failed to serve a request."""


class WorkerDied(WorkerError):
    """A shard worker process went away mid-request (pipe EOF/break).

    Internal signal of the failover path: the pool catches it, respawns
    the worker from the parent's resident shard copy, and retries the
    request — the caller only ever sees it when respawning itself keeps
    failing.
    """


@dataclass
class WorkerPoolStats:
    """Wire-traffic accounting, the proof of the runtime's contract.

    ``startup_bytes`` is the one-time shard shipment — a pickled copy
    of the columns on the heap path, a ~100-byte segment descriptor per
    shard on the shared-memory path (``shm_shards`` counts the latter,
    so O(1)-startup claims are checkable); ``request_bytes`` is
    everything the parent sent after startup (specs and deltas only —
    it must not scale with the resident shard size) and
    ``response_bytes`` the result arrays that came back.
    """

    startup_bytes: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    requests: int = 0
    spec_requests: int = 0
    pickled_callables: int = 0
    last_request_bytes: int = 0
    respawns: int = 0
    shm_shards: int = 0
    forced_kills: int = 0
    in_place_appends: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def shard_shm_eligible(shard: ColumnarDatabase, shm: bool | None) -> bool:
    """Would the pool back this shard with shared-memory segments?

    The single decision point shared by :class:`ShardWorkerPool` and
    :class:`repro.api.backends.ShardedBackend` (which pre-shares
    eligible shards so parent and workers reference one physical
    copy).  ``shm=None`` (auto) requires fixed-width columns **and** no
    attached row-record objects — records have no segment form, and
    the pickle path ships them so per-record fallbacks (opaque
    policies through the generic ``call`` request) keep working;
    ``shm=True`` insists on segments (rejecting object-dtype columns
    loudly, and knowingly dropping worker-side records — every spec
    request is unaffected); ``shm=False`` never uses segments.
    """
    if shm is False or not shm_available():
        return False
    existing = getattr(shard, "store", None)
    if existing is not None and not existing.closed:
        return True
    if not placeable(shard):
        if shm is True:
            raise TypeError(
                "shard has object-dtype columns; shared-memory backing "
                "needs fixed-width buffers"
            )
        return False
    if shm is None and getattr(shard, "_records", None) is not None:
        return False
    return True


class ShardWorkerPool:
    """Persistent worker processes, one per shard, columns shipped once.

    Build one from the shards (or a sharded database) and install it as
    the database's executor::

        pool = ShardWorkerPool(sharded.shards)
        db = sharded.with_executor(pool)   # map_shards now runs on it

    The pool recognizes the hot callables of the sharded engine and
    sends them as specs; see the module docstring for the wire
    contract.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        shards,
        mp_context: str | None = None,
        cache_limit: int = 128,
        shm: bool | None = None,
    ):
        import multiprocessing

        shard_list = tuple(getattr(shards, "shards", shards))
        if not shard_list:
            raise ValueError("need at least one shard")
        self._cache_limit = cache_limit
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self.stats = WorkerPoolStats()
        self._resident: list[ColumnarDatabase] = list(shard_list)
        # Per-shard shared-memory state: the ColumnStore whose segments
        # the worker attached (None on the pickle path), whether this
        # pool created it (and must unlink it), and the prefix-trim a
        # respawned worker must re-apply after attaching (expires are
        # view slices, never segment rewrites).
        self._stores: list[ColumnStore | None] = [None] * len(shard_list)
        self._owned: list[bool] = [False] * len(shard_list)
        self._trim: list[int] = [0] * len(shard_list)
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            self._resolve_backing(shm)
            for _ in shard_list:
                parent_conn, proc = self._spawn_process()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            payloads = [
                self._startup_payload(i) for i in range(len(shard_list))
            ]
            self.stats.startup_bytes = sum(len(p) for p in payloads)
            self.stats.shm_shards = sum(
                store is not None for store in self._stores
            )
            for conn, payload in zip(self._conns, payloads):
                conn.send_bytes(payload)
            for conn in self._conns:
                self._receive(conn)
        except BaseException:
            self.close()
            raise

    def _resolve_backing(self, shm: bool | None) -> None:
        """Decide, per shard, how its columns reach the worker.

        Eligibility is :func:`shard_shm_eligible` (auto by default,
        forced either way by ``shm``).  A shard that is already
        shm-backed (``shard.store``) is referenced in place — one
        physical copy shared with the parent and any co-hosted pool —
        and is never unlinked by this pool; anything else eligible is
        placed into pool-owned segments.
        """
        if shm is True and not shm_available():  # pragma: no cover
            raise RuntimeError(
                "shared-memory backing requested but "
                "multiprocessing.shared_memory is unavailable"
            )
        for i, shard in enumerate(self._resident):
            if not shard_shm_eligible(shard, shm):
                continue
            existing = getattr(shard, "store", None)
            if existing is not None and not existing.closed:
                self._stores[i] = existing
                continue
            self._stores[i] = ColumnStore.place(shard)
            self._owned[i] = True

    def _startup_payload(self, index: int) -> bytes:
        """The one-time shard shipment: a descriptor, or the columns."""
        store = self._stores[index]
        if store is not None:
            message = (
                "shard_shm",
                store.descriptor(),
                self._cache_limit,
                self._trim[index],
            )
        else:
            message = ("shard", self._resident[index], self._cache_limit)
        return pickle.dumps(message, _PICKLE_PROTOCOL)

    def _spawn_process(self):
        """Start one worker process; returns its (parent pipe, process)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def close(self) -> None:
        """Stop the workers, release the pipes and the shm segments.

        Idempotent.  Only the segments this pool *created* are
        unlinked; a shard that arrived already shm-backed
        (``sharded.share()``) belongs to its own store — co-hosted
        pools and the parent keep serving from it.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send_bytes(pickle.dumps(("stop",), _PICKLE_PROTOCOL))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            self._reap(proc)
        for conn in self._conns:
            conn.close()
        for store, owned in zip(self._stores, self._owned):
            if store is not None and owned:
                store.unlink()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send_payload(
        self, worker: int, payload: bytes, startup: bool = False
    ) -> None:
        if self._closed:
            raise WorkerError("pool is closed")
        try:
            self._conns[worker].send_bytes(payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDied(f"shard worker {worker} died mid-send") from exc
        if startup:
            self.stats.startup_bytes += len(payload)
        else:
            self.stats.request_bytes += len(payload)
            self.stats.last_request_bytes = len(payload)
            self.stats.requests += 1

    def _receive(self, conn):
        status, value = self._receive_any(conn)
        if status != "ok":
            raise WorkerError(value)
        return value

    def _receive_any(self, conn) -> tuple[str, object]:
        try:
            raw = conn.recv_bytes()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise WorkerDied("shard worker died") from exc
        self.stats.response_bytes += len(raw)
        return pickle.loads(raw)

    def _reap(self, proc, grace: float = 5.0, polite: bool = True) -> None:
        """Collect one worker process, escalating instead of leaking.

        [polite] join → terminate (SIGTERM) → kill (SIGKILL), each
        bounded by ``grace`` seconds, so a wedged worker can never
        linger as a silent zombie holding its pipe and shm
        attachments; an escalation to SIGKILL is surfaced in
        ``stats.forced_kills``.  ``polite=False`` (the respawn path,
        where the worker is already presumed dead or wedged) skips the
        initial wait.
        """
        if polite:
            proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=grace)
        if proc.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
            proc.kill()
            proc.join(timeout=grace)
            self.stats.forced_kills += 1

    def _respawn(self, index: int) -> None:
        """Replace a dead worker with a fresh process holding its shard.

        The parent keeps the authoritative resident-shard copy, so the
        replacement starts from exact data; its spec caches start cold,
        degrading the retried request to a recompute — never a crash.
        """
        try:
            self._conns[index].close()
        except OSError:  # pragma: no cover - platform-dependent
            pass
        self._reap(self._procs[index], polite=False)
        conn, proc = self._spawn_process()
        self._conns[index] = conn
        self._procs[index] = proc
        payload = self._startup_payload(index)
        self.stats.startup_bytes += len(payload)
        conn.send_bytes(payload)
        self._receive(conn)
        self.stats.respawns += 1

    def _send_with_failover(self, worker: int, payload: bytes) -> None:
        try:
            self._send_payload(worker, payload)
        except WorkerDied:
            self._respawn(worker)
            self._send_payload(worker, payload)

    def _request_one(self, index: int, message: tuple):
        """One request/reply exchange with a single worker, with failover.

        A worker that dies mid-exchange is respawned from the parent's
        resident copy and the request is resent once.  Respawning
        resets the worker to the parent's last committed state, so a
        death *after* applying a mutating request (append/expire) but
        before replying cannot double-apply it.
        """
        payload = pickle.dumps(message, _PICKLE_PROTOCOL)
        try:
            self._send_payload(index, payload)
            return self._receive(self._conns[index])
        except WorkerDied:
            self._respawn(index)
            self._send_payload(index, payload)
            return self._receive(self._conns[index])

    def _round_trip(self, request: tuple, workers: Sequence[int]) -> list:
        """Fan one request out, drain replies as they arrive, keep order.

        The payload is pickled once and fanned out (the request is the
        same for every worker).  Replies are consumed in *arrival*
        order via :func:`multiprocessing.connection.wait` — the parent
        deserializes fast shards' responses while slow shards still
        compute — and reassembled into worker order at the end, so the
        overlap never reorders results.  A worker that dies mid-request
        is respawned from the parent's resident shard copy and the
        request resent (a retried spec request recomputes on cold
        caches — bit-identical, just slower).  Every live reply is
        drained before a worker-reported failure is raised — leaving
        responses queued in a pipe would corrupt the next request's
        pairing, so one failing shard must not strand the others'.
        """
        from multiprocessing import connection as _mp_connection

        payload = pickle.dumps(request, _PICKLE_PROTOCOL)
        workers = list(workers)
        results: dict[int, object] = {}
        errors: list[str] = []
        pending = set()
        for worker in workers:
            try:
                self._send_with_failover(worker, payload)
                pending.add(worker)
            except WorkerError as exc:
                # The worker (and its replacement) could not even take
                # the request.  Record the failure and keep fanning out:
                # raising here would strand the already-sent workers'
                # replies in their pipes and desync the next request.
                errors.append(f"shard worker {worker}: {exc}")
        deaths = dict.fromkeys(workers, 0)
        while pending:
            by_conn = {self._conns[w]: w for w in pending}
            for conn in _mp_connection.wait(list(by_conn)):
                worker = by_conn[conn]
                try:
                    status, value = self._receive_any(conn)
                except WorkerDied:
                    deaths[worker] += 1
                    if deaths[worker] > 2:
                        pending.discard(worker)
                        errors.append(
                            f"shard worker {worker} kept dying after respawn"
                        )
                        continue
                    try:
                        self._respawn(worker)
                        self._send_payload(worker, payload)
                    except WorkerError as exc:
                        # Respawning (or the resend) itself failed —
                        # give up on this worker only; the others'
                        # replies must still drain.
                        pending.discard(worker)
                        errors.append(
                            f"shard worker {worker} failed to respawn: {exc}"
                        )
                    continue
                pending.discard(worker)
                if status != "ok":
                    errors.append(value)
                else:
                    results[worker] = value
        if errors:
            raise WorkerError(errors[0])
        return [results[w] for w in workers]

    def worker_cache_stats(self) -> list[dict[str, int]]:
        """Each worker's spec-cache hit/miss counters, in worker order."""
        return self._round_trip(("cache_stats",), range(self.n_workers))

    # ------------------------------------------------------------------
    # The executor face seen by ShardedColumnarDatabase.map_shards
    # ------------------------------------------------------------------
    def resident_matches(self, shards: Sequence[ColumnarDatabase]) -> bool:
        """True when ``shards`` are exactly the resident shard objects."""
        return len(shards) == len(self._resident) and all(
            a is b for a, b in zip(shards, self._resident)
        )

    def map_resident(
        self,
        shards: Sequence[ColumnarDatabase],
        fn: Callable,
        indices: Sequence[int] | None = None,
    ) -> list:
        """``[fn(shard) for shard in shards]`` on the resident workers.

        ``shards`` must be the pool's resident shard objects (the
        sharded database passes its own) — a pool cannot answer for
        data it does not hold.  ``indices`` restricts the call to a
        subset of workers (the incremental-update path).
        """
        shards = tuple(getattr(shards, "shards", shards))
        if not self.resident_matches(shards):
            raise WorkerError(
                "database shards are not this pool's resident shards; "
                "rebuild the pool (or route updates through the "
                "database so the pool sees them)"
            )
        request = self._request_for(fn)
        workers = (
            list(range(self.n_workers)) if indices is None else list(indices)
        )
        if request[0] == "call":
            self.stats.pickled_callables += len(workers)
        else:
            self.stats.spec_requests += len(workers)
        return self._round_trip(request, workers)

    def _request_for(self, fn: Callable) -> tuple:
        """Translate a map_shards callable into a wire request.

        Recognized shapes become pure-spec requests; everything else is
        pickled whole (the callable, never the shard).
        """
        owner = getattr(fn, "__self__", None)
        name = getattr(fn, "__name__", "")
        try:
            if owner is not None and name == "evaluate_batch" and isinstance(
                owner, Policy
            ):
                return ("mask", policy_to_spec(owner))
            if owner is not None and name == "bin_indices":
                return ("bin_indices", owner.to_spec())
            if isinstance(fn, functools.partial):
                from repro.data.sharding import _shard_histogram
                from repro.queries.histogram import (
                    _shard_histogram_counts,
                    binning_to_spec,
                )

                kw = fn.keywords or {}
                if fn.func is _shard_histogram_counts and not fn.args:
                    query, policy = kw["query"], kw["policy"]
                    return (
                        "hist_counts",
                        binning_to_spec(query.binning),
                        policy_to_spec(policy),
                    )
                if fn.func is _shard_histogram and not fn.args:
                    return (
                        "histogram",
                        binning_to_spec(kw["binning"]),
                        int(kw["n_bins"]),
                    )
        except (SpecUnsupported, PolicySpecError, AttributeError, KeyError):
            pass  # fall through to the pickled-callable path
        return ("call", fn)

    # ------------------------------------------------------------------
    # Incremental updates (driven by ShardedColumnarDatabase)
    # ------------------------------------------------------------------
    def append_shard_chunk(
        self, index: int, chunk: ColumnarDatabase, tail: ColumnarDatabase
    ) -> ColumnarDatabase:
        """Ship only the appended chunk to worker ``index``.

        ``tail`` is the parent's current last shard; the return value is
        the extended shard the database must commit — the pool records
        the same object so the residency check keeps passing after the
        update (worker and parent extend in lockstep).  An shm-backed
        shard **extends in place** when its headroom segments still
        have capacity for the chunk: the parent writes the new values
        past the live length, bumps the length headers, and the worker
        re-reads the headers — no new segments, no re-attach, O(chunk)
        cost on both sides.  On overflow the shard is **remapped**: the
        extended columns are placed into fresh headroom segments
        (``APPEND_HEADROOM`` spare capacity, so the *next* appends
        extend in place), the worker re-attaches (receiving the chunk
        alongside, so its spec caches still advance at O(chunk) cost)
        and the old segments are unlinked.
        """
        store = self._stores[index]
        if store is not None:
            committed = self._extend_in_place(index, chunk)
            if committed is not None:
                return committed
        new_shard = ColumnarDatabase.concat([tail, chunk])
        if store is None or not placeable(new_shard):
            n = self._request_one(index, ("append", chunk))
            if n != len(new_shard):
                raise WorkerError(
                    f"worker {index} shard has {n} records after append, "
                    f"parent expects {len(new_shard)}"
                )
            self._resident[index] = new_shard
            if store is not None:
                # The chunk introduced an unplaceable column; the shard
                # demotes to the heap path (the worker concatenated
                # locally, so its copy is already off the segments).
                if self._owned[index]:
                    store.unlink()
                self._stores[index] = None
                self._owned[index] = False
                self._trim[index] = 0
                self.stats.shm_shards -= 1
            return new_shard
        placed = ColumnStore.place(new_shard, headroom=APPEND_HEADROOM)
        try:
            n = self._request_one(
                index, ("append_shm", chunk, placed.descriptor())
            )
            if n != len(placed.database):
                raise WorkerError(
                    f"worker {index} shard has {n} records after append, "
                    f"parent expects {len(placed.database)}"
                )
        except BaseException:
            placed.unlink()
            raise
        old_store, old_owned = self._stores[index], self._owned[index]
        self._stores[index], self._owned[index] = placed, True
        self._trim[index] = 0
        self._resident[index] = placed.database
        if old_owned:
            # Existing mappings (this parent's views, other attachers)
            # stay valid after unlink; only the name goes away.
            old_store.unlink()
        return placed.database

    def _extend_in_place(
        self, index: int, chunk: ColumnarDatabase
    ) -> ColumnarDatabase | None:
        """Extend worker ``index``'s headroom segments by ``chunk``.

        Returns the committed (trim-sliced) extended shard, or ``None``
        when the segments lack headers or capacity for the chunk — the
        caller falls back to the remap path.  On a worker-reported
        failure the length headers roll back to the snapshot, so the
        segments never advance past the last committed state (the bytes
        past the rolled-back lengths are unreferenced and the next
        append overwrites them).
        """
        store = self._stores[index]
        before = store.database
        snapshot = store.length_snapshot()
        extended = store.try_append(chunk)
        if extended is None:
            return None
        trim = self._trim[index]
        committed = (
            extended.slice_records(trim, len(extended)) if trim else extended
        )
        try:
            n = self._request_one(index, ("extend_shm", chunk, trim))
            if n != len(committed):
                raise WorkerError(
                    f"worker {index} shard has {n} records after extend, "
                    f"parent expects {len(committed)}"
                )
        except BaseException:
            store.restore_lengths(snapshot)
            store.database = before
            raise
        self._resident[index] = committed
        self.stats.in_place_appends += 1
        return committed

    def expire_shard_prefix(
        self, index: int, n: int, new_shard: ColumnarDatabase
    ) -> None:
        """Drop the first ``n`` records of worker ``index``'s shard.

        Pure view arithmetic on both sides: the parent's ``new_shard``
        slices past the expired prefix and the worker slices its
        resident (possibly segment-backed) arrays the same way — no
        bytes move and no segments are rewritten.  The accumulated trim
        is recorded so a respawned worker re-applies it after
        attaching.
        """
        remaining = self._request_one(index, ("expire", int(n)))
        if remaining != len(new_shard):
            raise WorkerError(
                f"worker {index} shard has {remaining} records after "
                f"expire, parent expects {len(new_shard)}"
            )
        if self._stores[index] is not None:
            self._trim[index] += int(n)
        self._resident[index] = new_shard
