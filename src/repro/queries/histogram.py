"""Histogram (GROUP BY count) queries and the mechanism input bundle.

The paper's histogram query (Section 5) is::

    SELECT group, COUNT(*) FROM table WHERE <condition> GROUP BY <keys>

reporting *all* groups including empty ones.  A binning object maps each
record to a bin index over a fixed finite domain; :class:`HistogramQuery`
evaluates the counts.  Under the bounded model the L1-sensitivity of the
full histogram is 2 (a replacement moves one record between two bins)
and of a single count is 1.

:class:`HistogramInput` is the common currency of the low-dimensional
evaluation (Section 6.3.3): the true histogram ``x``, the non-sensitive
histogram ``x_ns``, and (for value-based policies such as TIPPERS')
an optional per-bin mask marking bins whose records are all sensitive.
DP mechanisms read only ``x``; OSDP mechanisms use ``x_ns`` and the mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.policy import Policy, plain_value
from repro.core.policy_language import PolicySpecError
from repro.data.database import Database

HISTOGRAM_L1_SENSITIVITY = 2.0
SINGLE_COUNT_SENSITIVITY = 1.0


# ----------------------------------------------------------------------
# Binning wire format (the histogram-side analog of
# repro.core.policy_language.policy_from_spec): each binning exposes
# to_spec() and binning_from_spec rebuilds an equivalent binning —
# identical cache_key(), bit-identical bin indices — so the shard-worker
# runtime ships binnings across process boundaries as small dicts.
# ----------------------------------------------------------------------


def binning_to_spec(binning) -> dict:
    """The JSON-serializable spec of a binning (``binning.to_spec()``)."""
    to_spec = getattr(binning, "to_spec", None)
    if to_spec is None:
        raise PolicySpecError(
            f"{type(binning).__name__} has no serializable spec; add a "
            "to_spec()/register_binning_kind pair to make it portable"
        )
    return to_spec()


_BINNING_KINDS: dict[str, Callable] = {}


def register_binning_kind(kind: str, loader: Callable) -> None:
    """Register a loader for a custom binning ``kind``.

    ``loader`` receives the whole spec dict and must return a binning
    whose ``to_spec()`` reproduces it (the round-trip contract).
    """
    if kind in _BINNING_KINDS:
        raise ValueError(f"binning kind {kind!r} already registered")
    _BINNING_KINDS[kind] = loader


def binning_from_spec(spec: Mapping):
    """Rebuild a binning from its spec — inverse of :func:`binning_to_spec`."""
    if not isinstance(spec, Mapping):
        raise PolicySpecError(
            f"binning spec must be a mapping, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if kind == "cat":
        return CategoricalBinning(spec["attr"], spec["domain"])
    if kind == "int":
        return IntegerBinning(
            spec["attr"], spec["low"], spec["high"], spec.get("width", 1)
        )
    if kind == "prod":
        return Product2DBinning(
            binning_from_spec(spec["first"]), binning_from_spec(spec["second"])
        )
    loader = _BINNING_KINDS.get(kind)
    if loader is None:
        raise PolicySpecError(
            f"unknown binning kind {kind!r}; registered: "
            f"{sorted(_BINNING_KINDS) + ['cat', 'int', 'prod']}"
        )
    return loader(spec)


def _shard_aware_bin_indices(impl: Callable) -> Callable:
    """Give a ``bin_indices`` implementation sharded dispatch.

    The binning-side analog of ``repro.core.policy._shard_aware``
    (binnings share no base class, so each vectorized ``bin_indices``
    opts in with this decorator): a sharded bundle is binned per shard
    and the index arrays concatenate in record order — bit-identical to
    the single-node array, since a record's bin depends only on that
    record.  Single-node bundles fall straight through.
    """

    @functools.wraps(impl)
    def bin_indices(self, columns) -> np.ndarray:
        map_shards = getattr(columns, "map_shards", None)
        if map_shards is not None:
            return np.concatenate(map_shards(self.bin_indices))
        return impl(self, columns)

    return bin_indices


class CategoricalBinning:
    """Bin by the value of a categorical attribute with a fixed domain."""

    def __init__(self, attribute: str, domain: Sequence[object]):
        if len(set(domain)) != len(domain):
            raise ValueError("domain values must be distinct")
        self.attribute = attribute
        self.domain = tuple(domain)
        self._index = {value: i for i, value in enumerate(self.domain)}

    @property
    def n_bins(self) -> int:
        return len(self.domain)

    def cache_key(self) -> tuple:
        """Hashable value identity (see ``Policy.cache_key``)."""
        return ("cat", self.attribute, self.domain)

    def to_spec(self) -> dict:
        """Wire form (see :func:`binning_from_spec`); order is the bin order."""
        return {
            "kind": "cat",
            "attr": self.attribute,
            "domain": [plain_value(v) for v in self.domain],
        }

    def bin_of(self, record: object) -> int:
        return self._lookup(record[self.attribute])  # type: ignore[index]

    @_shard_aware_bin_indices
    def bin_indices(self, columns) -> np.ndarray:
        """Vectorized ``bin_of`` over a column bundle.

        Sortable domains resolve via one ``np.searchsorted``; object
        domains fall back to the per-value dictionary lookup.
        """
        values = np.asarray(columns[self.attribute])
        domain = np.asarray(self.domain)
        if domain.dtype == object or values.dtype == object:
            return np.fromiter(
                (self._lookup(v) for v in values),
                dtype=np.int64,
                count=len(values),
            )
        order = np.argsort(domain, kind="stable")
        pos = np.searchsorted(domain[order], values)
        pos_clipped = np.minimum(pos, len(domain) - 1)
        matched = domain[order][pos_clipped] == values
        if not np.all(matched):
            offender = values[~matched][0].item()
            raise ValueError(
                f"value {offender!r} of attribute {self.attribute!r} "
                "is outside the declared domain"
            )
        return order[pos_clipped].astype(np.int64)

    def _lookup(self, value) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(
                f"value {value!r} of attribute {self.attribute!r} "
                "is outside the declared domain"
            ) from None


class IntegerBinning:
    """Bin an integer attribute into equal-width intervals.

    Bin ``i`` covers ``[low + i*width, low + (i+1)*width)``; values must
    lie in ``[low, high)``.
    """

    def __init__(self, attribute: str, low: int, high: int, width: int = 1):
        if high <= low:
            raise ValueError("high must exceed low")
        if width <= 0:
            raise ValueError("width must be positive")
        self.attribute = attribute
        self.low = low
        self.high = high
        self.width = width

    @property
    def n_bins(self) -> int:
        return -(-(self.high - self.low) // self.width)

    def cache_key(self) -> tuple:
        """Hashable value identity (see ``Policy.cache_key``)."""
        return ("int", self.attribute, self.low, self.high, self.width)

    def to_spec(self) -> dict:
        return {
            "kind": "int",
            "attr": self.attribute,
            "low": plain_value(self.low),
            "high": plain_value(self.high),
            "width": plain_value(self.width),
        }

    def bin_of(self, record: object) -> int:
        value = record[self.attribute]  # type: ignore[index]
        if not self.low <= value < self.high:
            raise ValueError(
                f"value {value!r} outside [{self.low}, {self.high})"
            )
        return (value - self.low) // self.width

    @_shard_aware_bin_indices
    def bin_indices(self, columns) -> np.ndarray:
        """Vectorized ``bin_of``: range check + integer division."""
        values = np.asarray(columns[self.attribute])
        in_range = (values >= self.low) & (values < self.high)
        if not np.all(in_range):
            offender = values[~in_range][0]
            offender = offender.item() if hasattr(offender, "item") else offender
            raise ValueError(
                f"value {offender!r} outside [{self.low}, {self.high})"
            )
        return ((values - self.low) // self.width).astype(np.int64)


class Product2DBinning:
    """Row-major product of two binnings (2-D histograms, e.g. AP x hour)."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    @property
    def n_bins(self) -> int:
        return self.first.n_bins * self.second.n_bins

    @property
    def shape(self) -> tuple[int, int]:
        return (self.first.n_bins, self.second.n_bins)

    def cache_key(self) -> tuple | None:
        """Value identity when both factors have one, else None."""
        first = getattr(self.first, "cache_key", lambda: None)()
        second = getattr(self.second, "cache_key", lambda: None)()
        if first is None or second is None:
            return None
        return ("prod", first, second)

    def to_spec(self) -> dict:
        return {
            "kind": "prod",
            "first": binning_to_spec(self.first),
            "second": binning_to_spec(self.second),
        }

    def bin_of(self, record: object) -> int:
        return self.first.bin_of(record) * self.second.n_bins + self.second.bin_of(
            record
        )

    # Dispatch at the product level so each shard computes its full
    # 2-D index in one pass instead of concatenating twice.
    @_shard_aware_bin_indices
    def bin_indices(self, columns) -> np.ndarray:
        return (
            self.first.bin_indices(columns) * self.second.n_bins
            + self.second.bin_indices(columns)
        )


class HistogramQuery:
    """A histogram query over a database with a fixed binning."""

    def __init__(self, binning):
        self.binning = binning

    @property
    def n_bins(self) -> int:
        return self.binning.n_bins

    @property
    def sensitivity(self) -> float:
        """L1-sensitivity of the full histogram under bounded DP."""
        return HISTOGRAM_L1_SENSITIVITY

    def evaluate(self, db) -> np.ndarray:
        """Counts over a row :class:`Database` or a columnar database.

        Columnar databases evaluate through the binning's vectorized
        ``bin_indices`` and one ``np.bincount``.
        """
        if hasattr(db, "histogram_from_indices"):
            return db.histogram(self.binning, self.n_bins)
        return db.histogram(self.binning.bin_of, self.n_bins)


@dataclass(frozen=True)
class HistogramInput:
    """Everything a low-dimensional release mechanism may consume.

    ``x`` — true histogram over all records;
    ``x_ns`` — histogram over non-sensitive records only (``x_ns <= x``);
    ``sensitive_bin_mask`` — optional; True for bins whose records are
    exclusively sensitive under a value-based policy (the TIPPERS case,
    §6.3.3.1).  When absent, bins may mix sensitive and non-sensitive
    records (the opt-in/opt-out case).
    """

    x: np.ndarray
    x_ns: np.ndarray
    sensitive_bin_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x)
        x_ns = np.asarray(self.x_ns)
        if x.shape != x_ns.shape:
            raise ValueError("x and x_ns must share a shape")
        if x.ndim != 1:
            raise ValueError("histograms must be flattened to 1-D")
        if np.any(x_ns > x):
            raise ValueError("x_ns must be a sub-histogram of x")
        if np.any(x < 0):
            raise ValueError("histogram counts must be non-negative")
        if self.sensitive_bin_mask is not None:
            mask = np.asarray(self.sensitive_bin_mask)
            if mask.shape != x.shape:
                raise ValueError("mask must match histogram shape")

    @property
    def n_bins(self) -> int:
        return len(self.x)

    @property
    def x_sensitive(self) -> np.ndarray:
        """Histogram of the sensitive records (``x - x_ns``)."""
        return self.x - self.x_ns

    # Cached views for the batched release fast paths.  The instance is
    # frozen, so these are computed once per input and shared across the
    # mechanisms and trials of a sweep (cached_property writes straight
    # to __dict__, which a frozen dataclass permits).

    @cached_property
    def x_ns_int(self) -> np.ndarray:
        """``x_ns`` as int64 counts (binomial thinning needs integers)."""
        return np.asarray(self.x_ns).astype(np.int64)

    @cached_property
    def ns_support(self) -> np.ndarray:
        """Indices of bins with a nonzero non-sensitive count.

        Support-restricted mechanisms (binomial thinning, the clipped
        one-sided Laplace) release exact zeros off the support, so only
        these bins ever need noise.
        """
        return np.flatnonzero(np.asarray(self.x_ns))

    @cached_property
    def ns_support_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bin_indices, counts)`` of the support, sorted by count.

        Sorted order lets numpy's binomial sampler reuse its per-count
        setup across equal consecutive counts.
        """
        counts = self.x_ns_int[self.ns_support]
        order = np.argsort(counts, kind="stable")
        return self.ns_support[order], counts[order]

    @property
    def non_sensitive_ratio(self) -> float:
        total = float(self.x.sum())
        return float(self.x_ns.sum()) / total if total else 0.0

    @classmethod
    def from_database(
        cls, db: Database, query: HistogramQuery, policy: Policy
    ) -> "HistogramInput":
        """Evaluate the query on the full and non-sensitive databases.

        Also derives the per-bin sensitivity mask: a bin is marked
        sensitive-only when it holds records but none are non-sensitive
        (the value-based-policy structure the hybrid mechanism exploits).
        """
        x = query.evaluate(db)
        x_ns = query.evaluate(db.non_sensitive(policy))
        mask = (x > 0) & (x_ns == 0)
        return cls(x=x, x_ns=x_ns, sensitive_bin_mask=mask)

    @classmethod
    def from_columnar(
        cls, db, query: HistogramQuery, policy: Policy
    ) -> "HistogramInput":
        """Vectorized ``from_database`` for a (possibly sharded) columnar db.

        Single-node: bin indices are computed once for the full
        database; ``x`` and ``x_ns`` are two ``np.bincount`` calls (the
        non-sensitive one over the policy's vectorized mask), so the
        whole construction is free of per-record Python dispatch.

        Sharded (:class:`repro.data.sharding.ShardedColumnarDatabase`):
        each shard produces its ``(x, x_ns)`` pair independently —
        serially or on the database's executor — and the pairs merge by
        exact integer addition, bit-identical to the single-node
        histograms.
        """
        map_shards = getattr(db, "map_shards", None)
        if map_shards is not None:
            pairs = map_shards(
                functools.partial(
                    _shard_histogram_counts, query=query, policy=policy
                )
            )
        else:
            pairs = [_shard_histogram_counts(db, query, policy)]
        return cls.from_shard_counts(pairs)

    @classmethod
    def from_shard_counts(
        cls, pairs: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> "HistogramInput":
        """Merge per-shard ``(x, x_ns)`` pairs and derive the bin mask.

        The single home of the merge-and-mask step shared by
        :meth:`from_columnar` and the release server's cached path —
        exact integer addition, then the value-based sensitivity mask
        (a bin is sensitive-only when populated but without
        non-sensitive records).
        """
        x = np.sum([p[0] for p in pairs], axis=0, dtype=np.int64)
        x_ns = np.sum([p[1] for p in pairs], axis=0, dtype=np.int64)
        mask = (x > 0) & (x_ns == 0)
        return cls(x=x, x_ns=x_ns, sensitive_bin_mask=mask)

    @classmethod
    def from_arrays(
        cls, x: np.ndarray, x_ns: np.ndarray
    ) -> "HistogramInput":
        return cls(x=np.asarray(x, dtype=float), x_ns=np.asarray(x_ns, dtype=float))


def counts_from_mask(
    bin_indices: np.ndarray, ns_mask: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(x, x_ns)`` int64 counts from bin indices + non-sensitive flags.

    The count-construction step shared by the columnar/sharded
    histogram path and the release server's cached path; rejects
    indices outside ``[0, n_bins)`` and index/mask length mismatches
    (a binning that silently drops records must fail loudly, not
    produce an x/x_ns pair built from inconsistent record sets).
    Counting runs in :func:`repro.mechanisms.kernels.hist_pair`: one
    fused pass producing both histograms — byte-identical to the
    classic two-bincount construction.
    """
    from repro.mechanisms import kernels

    bin_indices = np.asarray(bin_indices)
    ns_mask = np.asarray(ns_mask)
    if bin_indices.shape != ns_mask.shape:
        raise ValueError(
            f"bin indices cover {bin_indices.shape[0]} records but the "
            f"policy mask covers {ns_mask.shape[0]}"
        )
    return kernels.hist_pair(bin_indices, ns_mask, n_bins)


class BinLayout:
    """The policy-independent half of one shard's ``(x, x_ns)`` counts.

    Built once per ``(shard, binning)`` and reused for every policy:

    * ``x`` — the shard's read-only int64 histogram (the binning alone
      determines it);
    * ``nz`` / ``starts`` — the non-empty bins and where each one's
      records begin once the records are grouped by bin;
    * ``order`` — a stable argsort that groups the records by bin, or
      ``None`` when the indices are already non-decreasing (bin-sorted
      shards need no permutation).

    :meth:`counts` then turns a policy's non-sensitive flags into
    ``x_ns`` with one segmented sum (``np.add.reduceat``) — exact integer
    arithmetic, byte-identical to :func:`counts_from_mask`.  Indices
    outside ``[0, n_bins)`` raise ``ValueError`` here, at build time.
    """

    def __init__(self, bin_indices: np.ndarray, n_bins: int):
        from repro.mechanisms import kernels

        idx = np.ascontiguousarray(bin_indices, dtype=np.int64)
        n_bins = int(n_bins)
        kernels.check_bin_range(idx, n_bins)
        x = np.bincount(idx, minlength=n_bins).astype(np.int64, copy=False)
        x.flags.writeable = False
        self.n_records = len(idx)
        self.x = x
        self.nz = np.flatnonzero(x)
        sizes = x[self.nz]
        self.starts = np.cumsum(sizes) - sizes
        if np.all(idx[1:] >= idx[:-1]):
            self.order = None
        else:
            # A 16-bit key lets numpy's stable sort run as a radix sort.
            key = idx.astype(np.uint16) if n_bins <= 1 << 16 else idx
            self.order = np.argsort(key, kind="stable")

    @classmethod
    def of_shard(cls, columns, binning) -> "BinLayout":
        """The layout of one column bundle under ``binning``."""
        return cls(binning.bin_indices(columns), binning.n_bins)

    def counts(self, ns_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x, x_ns)`` int64 counts for one policy's non-sensitive flags."""
        ns = np.asarray(ns_mask, dtype=bool)
        if ns.shape != (self.n_records,):
            raise ValueError(
                f"bin layout covers {self.n_records} records but the "
                f"policy mask covers {ns.size}"
            )
        x_ns = np.zeros(len(self.x), dtype=np.int64)
        if self.n_records:
            if self.order is not None:
                ns = ns[self.order]
            # A segment sum never exceeds the record count, so int32
            # accumulates exactly (and twice as fast) below 2**31 records.
            acc = np.int32 if self.n_records < 1 << 31 else np.int64
            x_ns[self.nz] = np.add.reduceat(ns, self.starts, dtype=acc)
        return self.x, x_ns


def _shard_histogram_counts(
    db, query: HistogramQuery, policy: Policy
) -> tuple[np.ndarray, np.ndarray]:
    """``(x, x_ns)`` int64 counts for one columnar database (or shard).

    A module-level function (not a closure) so process-pool executors
    can ship it to workers alongside a picklable shard and policy.
    Eligible shard layouts (see ``ColumnarDatabase.fused_counts``) run
    the fully fused mask→bin→count kernel — one pass per shard, no
    index materialization — and every layout produces byte-identical
    pairs either way.
    """
    from repro.core.policy import NON_SENSITIVE

    ns = policy.evaluate_batch(db) == NON_SENSITIVE
    fused = getattr(db, "fused_counts", None)
    if fused is not None:
        pair = fused(query.binning, ns)
        if pair is not None:
            return pair
    indices = query.binning.bin_indices(db)
    return counts_from_mask(indices, ns, query.n_bins)


def histogram_input_for(db, query: HistogramQuery, policy: Policy) -> HistogramInput:
    """Build a :class:`HistogramInput` from any database flavor.

    Routes row databases through the per-record reference path and
    columnar/sharded databases through the vectorized path — the single
    entry point the mechanisms' ``release_from_database`` and the
    service facade use.
    """
    if hasattr(db, "map_shards") or hasattr(db, "histogram_from_indices"):
        return HistogramInput.from_columnar(db, query, policy)
    return HistogramInput.from_database(db, query, policy)


def ns_support(hist) -> np.ndarray:
    """Indices of nonzero non-sensitive bins for any histogram input.

    Uses the cached :class:`HistogramInput` view when available; the
    duck-typed fallback serves ad-hoc inputs that only expose ``x_ns``.
    """
    if isinstance(hist, HistogramInput):
        return hist.ns_support
    return np.flatnonzero(np.asarray(hist.x_ns))


def ns_support_sorted(hist) -> tuple[np.ndarray, np.ndarray]:
    """``(bin_indices, counts)`` of the nonzero ``x_ns`` bins, count-sorted.

    The single home of the support/sort logic the batched samplers rely
    on (see :attr:`HistogramInput.ns_support_sorted`).
    """
    if isinstance(hist, HistogramInput):
        return hist.ns_support_sorted
    counts = np.asarray(hist.x_ns).astype(np.int64)
    support = np.flatnonzero(counts)
    order = np.argsort(counts[support], kind="stable")
    return support[order], counts[support][order]


def flatten_2d(hist2d: np.ndarray) -> np.ndarray:
    """Row-major flatten for feeding 2-D histograms to 1-D mechanisms."""
    return np.asarray(hist2d).reshape(-1)
