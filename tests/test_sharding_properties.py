"""Property-based equivalence: sharded == single-node == per-record.

Hypothesis draws random policies from the whole policy algebra, random
flat and ragged columns, and random shard counts (including more shards
than records, so empty shards are exercised), then asserts the three
evaluation paths are **bit-identical**:

* per-record ``policy(record)`` — the paper-semantics reference;
* single-node ``evaluate_batch`` on a ``ColumnarDatabase``;
* per-shard ``evaluate_batch`` on a ``ShardedColumnarDatabase``,
  merged by concatenation.

The same holds for bin indices, bincounts, the assembled
``HistogramInput`` (including the release server's cached assembly over
per-shard bin layouts, across live appends and expiries), and — in the
spawned-rng exact mode — the released estimates themselves, which pins
down the end-to-end release path, not just the data plumbing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import (
    AllNonSensitivePolicy,
    AllSensitivePolicy,
    AttributePolicy,
    IntersectionPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.data.columnar import ColumnarDatabase
from repro.data.database import Database
from repro.data.tippers import SensitiveAPPolicy, Trajectory, trajectory_columns
from repro.evaluation.runner import spawn_rngs
from repro.mechanisms.osdp_laplace import OsdpLaplaceL1Histogram
from repro.mechanisms.osdp_rr import OsdpRRHistogram
from repro.queries.histogram import (
    CategoricalBinning,
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    Product2DBinning,
    histogram_input_for,
)
from repro.service import ReleaseServer

MAX_EXAMPLES = 30
CITIES = ("amber", "blue", "coral", "dune")

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def flat_records(draw):
    """Mapping records with an int, a categorical, and a bool column."""
    n = draw(st.integers(min_value=1, max_value=48))
    ages = draw(
        st.lists(st.integers(0, 99), min_size=n, max_size=n)
    )
    cities = draw(
        st.lists(st.sampled_from(CITIES), min_size=n, max_size=n)
    )
    opted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [
        {"age": a, "city": c, "opt_in": o}
        for a, c, o in zip(ages, cities, opted)
    ]


def _age_leaf():
    return st.integers(0, 99).map(
        lambda t: AttributePolicy("age", lambda v, t=t: v <= t, name=f"age<={t}")
    )


def _city_leaf():
    return st.sets(st.sampled_from(CITIES), max_size=len(CITIES)).map(
        lambda vs: SensitiveValuePolicy("city", vs)
    )


def flat_policies():
    """The policy algebra over the flat-record schema."""
    leaves = st.one_of(
        _age_leaf(),
        _city_leaf(),
        st.just(OptInPolicy()),
        st.just(AllSensitivePolicy()),
        st.just(AllNonSensitivePolicy()),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                MinimumRelaxationPolicy
            ),
            st.lists(children, min_size=1, max_size=3).map(IntersectionPolicy),
        ),
        max_leaves=6,
    )


@st.composite
def trajectories(draw):
    """Ragged-column records: contiguous-slot AP trajectories."""
    n = draw(st.integers(min_value=1, max_value=24))
    trajs = []
    for i in range(n):
        length = draw(st.integers(1, 6))
        start = draw(st.integers(0, 100))
        aps = draw(st.lists(st.integers(0, 9), min_size=length, max_size=length))
        trajs.append(
            Trajectory(
                user_id=i,
                day=0,
                slots=tuple((start + j, ap) for j, ap in enumerate(aps)),
            )
        )
    return trajs


def ap_policies():
    """The algebra over trajectory records (set-membership leaves)."""
    leaves = st.one_of(
        st.sets(st.integers(0, 9), max_size=10).map(SensitiveAPPolicy),
        st.just(AllSensitivePolicy()),
        st.just(AllNonSensitivePolicy()),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                MinimumRelaxationPolicy
            ),
            st.lists(children, min_size=1, max_size=3).map(IntersectionPolicy),
        ),
        max_leaves=5,
    )


shard_counts = st.integers(min_value=1, max_value=9)


# ----------------------------------------------------------------------
# Mask equivalence
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(records=flat_records(), policy=flat_policies(), k=shard_counts)
def test_flat_mask_bit_identical(records, policy, k):
    db = ColumnarDatabase.from_records(records)
    sharded = db.shard(k)
    per_record = np.fromiter(
        (policy(r) for r in records), dtype=np.int8, count=len(records)
    )
    single = policy.evaluate_batch(db)
    merged = policy.evaluate_batch(sharded)
    assert np.array_equal(single, per_record)
    assert np.array_equal(merged, per_record)
    assert merged.dtype == single.dtype
    assert np.array_equal(sharded.mask(policy), per_record)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(trajs=trajectories(), policy=ap_policies(), k=shard_counts)
def test_ragged_mask_bit_identical(trajs, policy, k):
    db = ColumnarDatabase(trajectory_columns(trajs), records=trajs)
    sharded = db.shard(k)
    per_record = np.fromiter(
        (policy(t) for t in trajs), dtype=np.int8, count=len(trajs)
    )
    assert np.array_equal(policy.evaluate_batch(db), per_record)
    assert np.array_equal(policy.evaluate_batch(sharded), per_record)


# ----------------------------------------------------------------------
# Bincount / histogram-input equivalence
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    records=flat_records(),
    policy=flat_policies(),
    k=shard_counts,
    width=st.sampled_from((1, 5, 10)),
)
def test_histogram_input_bit_identical(records, policy, k, width):
    db = ColumnarDatabase.from_records(records)
    sharded = db.shard(k)
    query = HistogramQuery(IntegerBinning("age", 0, 100, width))

    idx_single = query.binning.bin_indices(db)
    idx_sharded = query.binning.bin_indices(sharded)
    assert np.array_equal(idx_single, idx_sharded)
    assert np.array_equal(
        db.histogram(query.binning), sharded.histogram(query.binning)
    )

    h_row = histogram_input_for(Database(records), query, policy)
    h_single = histogram_input_for(db, query, policy)
    h_sharded = histogram_input_for(sharded, query, policy)
    for a, b in ((h_single, h_sharded), (h_single, h_row)):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.x_ns, b.x_ns)
        assert np.array_equal(a.sensitive_bin_mask, b.sensitive_bin_mask)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(records=flat_records(), k=shard_counts)
def test_categorical_bincount_bit_identical(records, k):
    db = ColumnarDatabase.from_records(records)
    sharded = db.shard(k)
    binning = CategoricalBinning("city", CITIES)
    assert np.array_equal(
        binning.bin_indices(db), binning.bin_indices(sharded)
    )
    assert np.array_equal(db.histogram(binning), sharded.histogram(binning))


# ----------------------------------------------------------------------
# Release-server assembly == HistogramInput.from_columnar
# ----------------------------------------------------------------------

BINNINGS = (
    IntegerBinning("age", 0, 100, 1),
    IntegerBinning("age", 0, 100, 10),
    CategoricalBinning("city", CITIES),
    Product2DBinning(
        IntegerBinning("age", 0, 100, 25), CategoricalBinning("city", CITIES)
    ),
)

# Live updates: append a fresh batch, or expire a prefix (clamped to
# the records still held).
updates = st.lists(
    st.one_of(
        st.tuples(st.just("append"), flat_records()),
        st.tuples(st.just("expire"), st.integers(0, 60)),
    ),
    max_size=3,
)


def _assert_same_input(a: HistogramInput, b: HistogramInput) -> None:
    for field in ("x", "x_ns", "sensitive_bin_mask"):
        got, want = getattr(a, field), getattr(b, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    records=flat_records(),
    policies=st.lists(
        st.one_of(
            flat_policies(),
            st.sampled_from((AllSensitivePolicy(), AllNonSensitivePolicy())),
        ),
        min_size=1,
        max_size=3,
    ),
    binning=st.sampled_from(BINNINGS),
    k=shard_counts,
    bin_sorted=st.booleans(),
    rnd=st.randoms(use_true_random=False),
    steps=updates,
    cache_limit=st.integers(2, 5),
)
def test_server_histogram_input_matches_from_columnar(
    records, policies, binning, k, bin_sorted, rnd, steps, cache_limit
):
    """The server's cached assembly (per-shard bin layouts + masks) is
    bit-identical to the uncached library path, for bin-sorted and
    shuffled shards, empty shards, all-(non-)sensitive masks, LRU
    eviction, and interleaved appends/expiries."""
    if bin_sorted:
        records = sorted(records, key=binning.bin_of)
    else:
        rnd.shuffle(records)
    held = list(records)
    server = ReleaseServer(
        ColumnarDatabase.from_records(records).shard(k),
        cache_limit=cache_limit,
    )
    query = HistogramQuery(binning)
    for step in [None, *steps]:
        if step is not None and step[0] == "append":
            server.append_records(step[1])
            held.extend(step[1])
        elif step is not None:
            n = min(step[1], len(held))
            server.expire_prefix(n)
            del held[:n]
        for policy in policies:
            got, _ = server.histogram_input(binning, policy)
            _assert_same_input(
                got, HistogramInput.from_columnar(server.db, query, policy)
            )
            if held:
                _assert_same_input(
                    got,
                    HistogramInput.from_columnar(
                        ColumnarDatabase.from_records(held), query, policy
                    ),
                )


# ----------------------------------------------------------------------
# Release equivalence (spawned-rng exact mode)
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    records=flat_records(),
    policy=flat_policies(),
    k=shard_counts,
    seed=st.integers(0, 2**16),
)
def test_spawned_mode_release_bit_identical(records, policy, k, seed):
    """Same trial protocol + same-seed streams + sharded inputs
    => the released estimates match the single-node path bit for bit."""
    db = ColumnarDatabase.from_records(records)
    sharded = db.shard(k)
    query = HistogramQuery(IntegerBinning("age", 0, 100, 10))
    h_single = HistogramInput.from_columnar(db, query, policy)
    h_sharded = HistogramInput.from_columnar(sharded, query, policy)
    for mech in (OsdpLaplaceL1Histogram(1.0), OsdpRRHistogram(1.0)):
        a = mech.release_batch(h_single, spawn_rngs(seed, 2))
        b = mech.release_batch(h_sharded, spawn_rngs(seed, 2))
        assert np.array_equal(a, b)
