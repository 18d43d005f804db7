"""The histogram-release server: sharded engine + caches + accountant.

A deployment of the paper's mechanisms is not one release but a stream
of them: many analysts, many policies, many binnings, one budget.  The
server models exactly that traffic shape while staying in-process (no
sockets — transport is out of scope; the request/response dataclasses
are the wire format a transport would serialize):

* **Sharded evaluation.**  The database is a
  :class:`repro.data.sharding.ShardedColumnarDatabase`; masks and bin
  layouts are computed shard by shard (on the database's executor when
  it has one) and merged bit-identically to single-node evaluation.
* **Cross-request caching.**  Policy masks are cached per
  ``(shard, policy)`` and bin layouts
  (:class:`~repro.queries.histogram.BinLayout`: the binning's own
  histogram ``x`` plus a record grouping by bin) per
  ``(shard, binning)``, so a burst of requests over the same policy
  pays the mask once and a new policy over a known binning pays only
  its mask and one segmented sum per shard; the
  assembled :class:`~repro.queries.histogram.HistogramInput` is cached
  per ``(binning, policy)``.  Cache keys prefer the objects'
  ``cache_key()`` *value identity* (so a transport that deserializes a
  fresh-but-equal policy or binning per request still hits), falling
  back to object identity for opaque predicates (the fallback pins the
  object so CPython cannot recycle its ``id``).  The key set is
  bounded: beyond ``cache_limit`` distinct policies/binnings the
  least-recently-used key and all of its per-shard arrays are evicted,
  so a long-lived server cannot grow without bound.  The data is
  immutable, so live entries never invalidate.
* **Budget accounting.**  Every release charges the accountant under
  the request's policy (DP mechanisms charge under ``P_all`` per Lemma
  3.1) *before* sampling; a request that would exceed the budget raises
  :class:`repro.core.accountant.BudgetExceededError` and releases
  nothing.  A batch that fails mid-way raises
  :class:`BatchBudgetExceededError`, which carries the responses of the
  already-charged prefix — charged noise is never silently discarded.
* **Live data.**  :meth:`ReleaseServer.append_records` and
  :meth:`ReleaseServer.expire_prefix` mutate the sharded database in
  place (tail-shard extension / front-shard trim — never a full
  reslice).  Every cache entry carries the shard versions it was
  computed under, so a data update invalidates exactly the affected
  shards' entries lazily: the next request recomputes the stale shards
  and reuses the rest.
* **Specs at the boundary.**  A request's ``policy``/``binning`` may be
  the live objects *or* their wire specs (plain dicts, see
  :func:`repro.core.policy_language.policy_from_spec`); specs are
  resolved per request and still share cache entries via value
  identity.  With a :class:`repro.data.workers.ShardWorkerPool` as the
  executor, histogram assembly skips the parent-side mask arrays
  entirely: each worker answers a spec request with its shard's
  ``(x, x_ns)`` pair, so per-request traffic stays O(bins), not
  O(records).

* **Thread safety.**  One server may be driven by many threads: the
  caches, the sharded engine (a worker pool's pipes serve one fan-out
  at a time) and the stats sit behind one internal lock, held only for
  histogram assembly — a dict lookup on a warm cache — while the
  release sampling runs outside it, and accountant charges are atomic
  in the accountant itself.  Concurrent ``handle`` calls therefore
  overlap their noise kernels; the RPC tier adds a readers-writer
  discipline on top so releases run concurrently while
  ``append_records``/``expire_prefix`` run exclusively.

Caching the mask/histogram is free privacy-wise: the cached values are
exact data-dependent intermediates, and privacy is only consumed when a
mechanism samples a release from them.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.accountant import BudgetExceededError, PrivacyAccountant
from repro.core.policy import NON_SENSITIVE, Policy
from repro.core.policy_language import policy_from_spec
from repro.data.columnar import ColumnarDatabase
from repro.data.sharding import ShardedColumnarDatabase
from repro.mechanisms.base import MechanismRegistry
from repro.queries.histogram import (
    BinLayout,
    HistogramInput,
    HistogramQuery,
    _shard_histogram_counts,
    binning_from_spec,
)


class BatchBudgetExceededError(BudgetExceededError):
    """A batch ran out of budget mid-way.

    ``responses`` holds the already-produced (and already-charged)
    prefix; ``failed_request`` is the first request that could not be
    afforded.  Earlier releases consumed real budget, so they must
    reach the caller even though the batch as a whole failed.
    """

    def __init__(self, message: str, responses, failed_request):
        super().__init__(message)
        self.responses = list(responses)
        self.failed_request = failed_request

    def __reduce__(self):
        # Exceptions with extra constructor arguments do not pickle by
        # default; the charged prefix must survive process and socket
        # boundaries (see repro.api.wire for the JSON form), so spell
        # the reconstruction out.
        return (
            type(self),
            (str(self), self.responses, self.failed_request),
        )


def default_registry() -> MechanismRegistry:
    """The standard pool: the paper's OSDP and DP release algorithms."""
    from repro.mechanisms.dawa import Dawa
    from repro.mechanisms.dawaz import DawaZ
    from repro.mechanisms.laplace import LaplaceHistogram
    from repro.mechanisms.osdp_laplace import (
        HybridOsdpLaplace,
        OsdpLaplaceHistogram,
        OsdpLaplaceL1Histogram,
    )
    from repro.mechanisms.osdp_rr import OsdpRRHistogram

    registry = MechanismRegistry()
    registry.register("laplace", LaplaceHistogram)
    registry.register("dawa", Dawa)
    registry.register("dawaz", DawaZ)
    registry.register("osdp_rr", OsdpRRHistogram)
    registry.register("osdp_laplace", OsdpLaplaceHistogram)
    registry.register("osdp_laplace_l1", OsdpLaplaceL1Histogram)
    registry.register("osdp_hybrid", HybridOsdpLaplace)
    return registry


@dataclass(frozen=True)
class ReleaseRequest:
    """One histogram-release job.

    ``mechanism`` names a registry entry; ``binning`` is any object with
    ``bin_indices``/``n_bins`` (the :mod:`repro.queries.histogram`
    binnings) or its wire spec; ``policy`` decides sensitivity — a
    :class:`~repro.core.policy.Policy` or its wire spec (a plain dict,
    the form a network transport would deliver); ``seed=None`` draws
    fresh OS entropy per request (the production default), while an
    explicit seed makes the response reproducible.  ``analyst`` is the
    credential the charge is booked under — with per-analyst quotas on
    the accountant it is also enforced as a sub-budget.
    """

    mechanism: str
    epsilon: float
    binning: object
    policy: "Policy | Mapping"
    n_trials: int = 1
    seed: int | None = None
    label: str = ""
    analyst: str = ""


@dataclass(frozen=True)
class ReleaseResponse:
    """The released estimates plus the accounting trail."""

    request: ReleaseRequest
    estimates: np.ndarray  # (n_trials, n_bins)
    epsilon_spent: float
    budget_remaining: float | None
    cache_hit: bool


@dataclass
class ServiceStats:
    """Cache effectiveness counters (per shard-level computation)."""

    mask_hits: int = 0
    mask_misses: int = 0
    index_hits: int = 0
    index_misses: int = 0
    hist_hits: int = 0
    hist_misses: int = 0
    evictions: int = 0
    requests: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class ReleaseServer:
    """Serve histogram-release requests from one sharded database."""

    def __init__(
        self,
        db,
        registry: MechanismRegistry | None = None,
        accountant: PrivacyAccountant | None = None,
        n_shards: int | None = None,
        executor=None,
        cache_limit: int = 128,
    ):
        if isinstance(db, ShardedColumnarDatabase):
            if executor is not None:
                db = db.with_executor(executor)
        else:
            if not isinstance(db, ColumnarDatabase):
                db = ColumnarDatabase.from_database(db)
            db = db.shard(n_shards or 1, executor=executor)
        if cache_limit < 2:
            # A single request keeps two keys live (binning + policy);
            # with fewer slots they would evict each other mid-request.
            raise ValueError("cache_limit must be at least 2")
        self._db: ShardedColumnarDatabase = db
        self._registry = registry or default_registry()
        self.accountant = accountant
        self.cache_limit = cache_limit
        self.stats = ServiceStats()
        # Every cache value is paired with the shard version(s) it was
        # computed under (see ShardedColumnarDatabase.shard_versions);
        # an incremental append/expire bumps the touched shards'
        # versions, so stale entries miss lazily and only those shards
        # recompute.  (shard index, policy key) -> (version, int8 mask);
        # (shard index, binning key) -> (version, BinLayout);
        # (shard index, binning key, policy key) -> (version, (x, x_ns));
        # (binning key, policy key) -> (versions tuple, HistogramInput).
        # Keys come from _key(); _keyed tracks every live key in
        # insertion order — it pins identity-keyed objects (so CPython
        # cannot recycle an id into a stale hit) and is the LRU
        # eviction queue bounding total cache growth.  _pairs maps each
        # live key to the (binning key, policy key) pairs it takes part
        # in, so eviction finds its counts/histogram entries directly.
        self._mask_cache: dict[tuple, tuple[int, np.ndarray]] = {}
        self._index_cache: dict[tuple, tuple[int, BinLayout]] = {}
        self._counts_cache: dict[tuple, tuple[int, tuple]] = {}
        self._hist_cache: dict[tuple, tuple[tuple, HistogramInput]] = {}
        self._keyed: dict[tuple, object] = {}
        self._pairs: dict[tuple, set[tuple]] = {}
        # One reentrant lock guards every structure above *and* all
        # access to the sharded engine/executor (a worker pool's pipes
        # serve one fan-out at a time).  handle() holds it only for
        # histogram assembly — on a warm cache that is a dict lookup —
        # and samples the release outside it, so concurrent analysts
        # overlap the expensive part (see RpcServer's readers-writer
        # discipline on top).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def db(self) -> ShardedColumnarDatabase:
        return self._db

    @property
    def n_shards(self) -> int:
        return self._db.n_shards

    @property
    def budget_remaining(self) -> float | None:
        return self.accountant.remaining if self.accountant else None

    def budget_view(self) -> dict | None:
        """The full ledger document (the ``budget`` RPC op's payload):
        totals plus per-entry ``label``/``epsilon``/``policy``/
        ``analyst`` rows and per-analyst quota standing.  None when the
        server is unmetered."""
        if self.accountant is None:
            return None
        return self.accountant.view()

    # ------------------------------------------------------------------
    # Cached shard-level building blocks
    # ------------------------------------------------------------------
    def _key(self, obj: object) -> tuple:
        """The cache key of a policy/binning: value identity when possible.

        Objects exposing a non-None ``cache_key()`` (the algebra
        policies, the standard binnings) key by value, so equal objects
        deserialized per request share cache entries; opaque objects
        (predicate policies) key by ``id`` and are pinned.  Either way
        the key is registered in the LRU eviction queue.
        """
        value_key = getattr(obj, "cache_key", lambda: None)()
        key = ("v", value_key) if value_key is not None else ("id", id(obj))
        if key in self._keyed:
            # LRU touch: move to the back of the eviction queue, so a
            # hot key is never the one evicted when the limit is hit.
            self._keyed[key] = self._keyed.pop(key)
        else:
            if len(self._keyed) >= self.cache_limit:
                self._evict(next(iter(self._keyed)))
            self._keyed[key] = obj
        return key

    def _evict(self, key: tuple) -> None:
        """Drop one keyed object and every cache entry referencing it.

        Costs the key's own entries, not a scan of every cache:
        per-shard entries are popped by ``(shard, key)``, and the
        ``(binning, policy)`` pairs come from ``_pairs``.
        """
        self._keyed.pop(key, None)
        shards = range(self.n_shards)
        for i in shards:
            self._mask_cache.pop((i, key), None)
            self._index_cache.pop((i, key), None)
        for pair in self._pairs.pop(key, ()):
            for other in pair:
                self._pairs.get(other, set()).discard(pair)
            self._hist_cache.pop(pair, None)
            for i in shards:
                self._counts_cache.pop((i, *pair), None)
        self.stats.evictions += 1

    def _per_shard(
        self, cache: dict, key: tuple, compute, hits: str, misses: str
    ) -> list:
        """Fetch or refresh a key's per-shard cache entries.

        Entries carry the shard version they were computed under; the
        stale subset (missing entries, or shards touched by an
        append/expire since) refills in one ``map_shards`` pass over
        just those shards, so an incremental update costs exactly the
        affected shards' recomputation.
        """
        versions = self._db.shard_versions
        stale = [
            i
            for i in range(self.n_shards)
            if cache.get((i, key), (None,))[0] != versions[i]
        ]
        setattr(
            self.stats, misses, getattr(self.stats, misses) + len(stale)
        )
        setattr(
            self.stats,
            hits,
            getattr(self.stats, hits) + self.n_shards - len(stale),
        )
        if stale:
            for i, value in zip(
                stale, self._db.map_shards(compute, indices=stale)
            ):
                cache[(i, key)] = (versions[i], value)
        return [cache[(i, key)][1] for i in range(self.n_shards)]

    def shard_masks(self, policy: Policy) -> list[np.ndarray]:
        """Per-shard policy masks, cached per ``(shard, policy key)``."""
        with self._lock:
            return self._per_shard(
                self._mask_cache,
                self._key(policy),
                policy.evaluate_batch,
                "mask_hits",
                "mask_misses",
            )

    def shard_layouts(self, binning) -> list[BinLayout]:
        """Per-shard bin layouts, cached per ``(shard, binning key)``."""
        with self._lock:
            return self._per_shard(
                self._index_cache,
                self._key(binning),
                functools.partial(BinLayout.of_shard, binning=binning),
                "index_hits",
                "index_misses",
            )

    def _shard_counts(
        self, binning, policy: Policy, bkey: tuple, pkey: tuple
    ) -> list[tuple]:
        """Per-shard ``(x, x_ns)`` pairs, cached and version-checked.

        Two refill routes for the stale shards: with a shard-resident
        worker pool as the executor, the partial below travels as a
        pure spec request and only the O(bins) count pairs come back;
        otherwise the counts derive from the cached per-shard masks and
        bin layouts (which themselves refresh only their stale shards):
        ``x`` is the layout's own, ``x_ns`` one segmented sum of the mask.
        """
        versions = self._db.shard_versions
        cache = self._counts_cache
        stale = [
            i
            for i in range(self.n_shards)
            if cache.get((i, bkey, pkey), (None,))[0] != versions[i]
        ]
        if stale:
            if getattr(self._db.executor, "map_resident", None) is not None:
                pairs = self._db.map_shards(
                    functools.partial(
                        _shard_histogram_counts,
                        query=HistogramQuery(binning),
                        policy=policy,
                    ),
                    indices=stale,
                )
            else:
                masks = self.shard_masks(policy)
                layouts = self.shard_layouts(binning)
                pairs = [
                    layouts[i].counts(masks[i] == NON_SENSITIVE)
                    for i in stale
                ]
            for i, pair in zip(stale, pairs):
                cache[(i, bkey, pkey)] = (versions[i], pair)
        return [cache[(i, bkey, pkey)][1] for i in range(self.n_shards)]

    def histogram_input(
        self, binning, policy: Policy
    ) -> tuple[HistogramInput, bool]:
        """The merged ``(x, x_ns, mask)`` bundle and whether it was cached.

        Built from the cached (version-checked) per-shard count pairs;
        the merge is exact integer addition, so the result is
        bit-identical to
        :meth:`repro.queries.histogram.HistogramInput.from_columnar` on
        the same sharded database — including after incremental
        appends/expires, where only the touched shards recompute.
        """
        with self._lock:
            bkey, pkey = self._key(binning), self._key(policy)
            key = (bkey, pkey)
            versions = self._db.shard_versions
            cached = self._hist_cache.get(key)
            if cached is not None and cached[0] == versions:
                self.stats.hist_hits += 1
                return cached[1], True
            self.stats.hist_misses += 1
            for k in key:
                self._pairs.setdefault(k, set()).add(key)
            hist = HistogramInput.from_shard_counts(
                self._shard_counts(binning, policy, bkey, pkey)
            )
            hist.ns_support_sorted  # warm the release fast-path views
            self._hist_cache[key] = (versions, hist)
            return hist, False

    def histogram_counts(
        self, binning, policy
    ) -> tuple[np.ndarray, np.ndarray]:
        """This server's merged ``(x, x_ns)`` int64 count pair.

        The cluster-tier building block: a coordinator holding several
        of these servers (each owning a disjoint shard range) sums the
        pairs — plain int64 addition, the same merge
        :meth:`HistogramInput.from_shard_counts` performs over local
        shards — and samples noise once at the merge tier, so a
        clustered release stays bit-identical to a single server
        holding all the shards.  Accepts live binning/policy objects or
        their wire specs.
        """
        if isinstance(binning, Mapping):
            binning = binning_from_spec(binning)
        if isinstance(policy, Mapping):
            policy = policy_from_spec(policy)
        hist, _ = self.histogram_input(binning, policy)
        return np.asarray(hist.x), np.asarray(hist.x_ns)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(request: ReleaseRequest) -> tuple[object, Policy]:
        """Materialize a request's binning/policy from wire specs.

        A dict-shaped ``policy``/``binning`` is what a transport
        delivers; resolution goes through the spec loaders, and the
        resulting objects still share cache entries with their live
        twins via ``cache_key()`` value identity.
        """
        binning, policy = request.binning, request.policy
        if isinstance(binning, Mapping):
            binning = binning_from_spec(binning)
        if isinstance(policy, Mapping):
            policy = policy_from_spec(policy)
        return binning, policy

    def handle(self, request: ReleaseRequest) -> ReleaseResponse:
        """Serve one request: cache-assisted histogram, charge, release."""
        if request.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        binning, policy = self._resolve(request)
        hist, cache_hit = self.histogram_input(binning, policy)
        mechanism = self._registry.create(request.mechanism, request.epsilon)
        accountant = self.accountant
        if accountant is not None and request.analyst:
            # Bind the charge to the request's credential: quota'd
            # analysts are checked against their sub-budget atomically
            # with the global check.
            accountant = accountant.for_analyst(request.analyst)
        # `run` on the cache-assembled input: the ledger records the
        # policy whose x_ns the mechanism consumed (DP mechanisms
        # charge under P_all per Lemma 3.1) — the composition theorem
        # (Theorem 3.3) folds the entries into the minimum relaxation.
        estimates = mechanism.run(
            hist,
            np.random.default_rng(request.seed),
            n_trials=request.n_trials,
            policy=policy,
            accountant=accountant,
            label=request.label or request.mechanism,
        )
        with self._lock:
            self.stats.requests += 1
        return ReleaseResponse(
            request=request,
            estimates=estimates,
            epsilon_spent=request.epsilon,
            budget_remaining=self.budget_remaining,
            cache_hit=cache_hit,
        )

    def handle_batch(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResponse]:
        """Serve a traffic batch in order.

        Requests sharing a ``(binning, policy)`` pair hit the histogram
        cache after the first.  Malformed requests (unknown mechanism,
        bad trial count, non-positive epsilon) are rejected up front,
        before *any* request is charged — budget must never be spent on
        a batch that was doomed by a typo.  The accountant then sees
        every request; when one overruns the budget, the
        already-charged prefix must not be lost, so the failure is
        re-raised as :class:`BatchBudgetExceededError` carrying those
        responses.
        """
        for request in requests:
            if request.mechanism not in self._registry:
                raise KeyError(
                    f"unknown mechanism {request.mechanism!r}; registered: "
                    f"{self._registry.names()}"
                )
            if request.n_trials < 1:
                raise ValueError("n_trials must be at least 1")
            if request.epsilon <= 0:
                raise ValueError("epsilon must be positive")
        responses: list[ReleaseResponse] = []
        for request in requests:
            try:
                responses.append(self.handle(request))
            except BudgetExceededError as exc:
                raise BatchBudgetExceededError(
                    str(exc), responses, request
                ) from exc
        return responses

    def query_true_histogram(self, query: HistogramQuery) -> np.ndarray:
        """The exact (non-private) histogram — for offline error audits."""
        with self._lock:
            return self._db.histogram(query.binning, query.n_bins)

    def true_histogram(self, binning) -> np.ndarray:
        """The exact histogram for a binning object *or* its wire spec.

        The transport-facing twin of :meth:`query_true_histogram`: the
        curator-side audit endpoint every backend (in-process, sharded,
        remote) exposes through :class:`repro.api.OsdpClient`.
        """
        if isinstance(binning, Mapping):
            binning = binning_from_spec(binning)
        with self._lock:
            return self._db.histogram(binning, binning.n_bins)

    # ------------------------------------------------------------------
    # Incremental data updates
    # ------------------------------------------------------------------
    def append_records(self, records) -> int:
        """Ingest new records without a reslice; returns the tail shard index.

        Delegates to
        :meth:`repro.data.sharding.ShardedColumnarDatabase.append_records`
        (which forwards only the chunk to a shard-resident worker
        pool).  No cache is cleared here: the tail shard's version bump
        makes exactly its entries miss on the next request, while every
        other shard's cached masks, indices and counts keep serving —
        the merged histograms are bit-identical to a from-scratch
        rebuild over the extended data.

        Appending changes the database the privacy ledger describes;
        as in the paper's continual-observation setting, the accountant
        keeps charging cumulatively — budget never resets on ingest.
        """
        with self._lock:
            return self._db.append_records(records)

    def expire_prefix(self, n_records: int) -> list[int]:
        """Drop the ``n_records`` oldest records (retention enforcement).

        Only the leading shards' versions bump; their cache entries
        miss lazily and everything else keeps serving.  Returns the
        touched shard indices.
        """
        with self._lock:
            return self._db.expire_prefix(n_records)

    def replace_database(self, db) -> None:
        """Swap in a whole new database state (WAL recovery / resync).

        Unlike the incremental paths above, this discards every cached
        shard artifact: the fresh sharded database restarts its shard
        versions at zero, so stale entries keyed under the old
        versions could otherwise collide with them.  Refused while an
        executor is attached — resident workers hold the old columns
        and would keep answering from them.
        """
        if self._db.executor is not None:
            raise RuntimeError(
                "cannot replace the database while a worker executor is "
                "attached; resident workers still hold the old columns"
            )
        if not isinstance(db, ShardedColumnarDatabase):
            if not isinstance(db, ColumnarDatabase):
                db = ColumnarDatabase.from_database(db)
            db = db.shard(self._db.n_shards)
        with self._lock:
            self._db = db
            self._mask_cache.clear()
            self._index_cache.clear()
            self._counts_cache.clear()
            self._hist_cache.clear()
            self._keyed.clear()
            self._pairs.clear()
