"""The kernel tier: fused counts and the noise samplers' distributions.

Two lanes:

* **Fused bit-identity** (hypothesis) — the fused ``(x, x_ns)`` paths
  (``hist_pair``, ``int_bin_pair``, ``HistogramInput.from_columnar``)
  are byte-identical to the classic two-bincount construction and to
  the per-record paper-semantics reference, across the policy algebra,
  integer/categorical/ragged-final-bin binnings, and sparse/dense/
  sharded layouts.
* **Samplers** — the noise transforms are seed-deterministic and their
  outputs pass chi-squared checks against the exact Laplace, one-sided
  Laplace and binomial distributions.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
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
from repro.mechanisms import batch_sampling, kernels
from repro.queries.histogram import (
    CategoricalBinning,
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    counts_from_mask,
)

MAX_EXAMPLES = 30
CITIES = ("amber", "blue", "coral", "dune")


def test_active_backend_is_numpy():
    # Recorded by the benchmark's environment block and the RPC ping.
    assert kernels.active_backend() == "numpy"


# ----------------------------------------------------------------------
# Fused counts vs the two-bincount reference (hypothesis)
# ----------------------------------------------------------------------


@st.composite
def indexed_masks(draw):
    """(bin_indices, ns_mask, n_bins) with sparse and dense regimes."""
    n_bins = draw(st.integers(1, 40))
    n = draw(st.integers(0, 200))
    idx = draw(
        st.lists(st.integers(0, n_bins - 1), min_size=n, max_size=n)
    )
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        np.asarray(idx, dtype=np.int64),
        np.asarray(mask, dtype=bool),
        n_bins,
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=indexed_masks())
def test_hist_pair_matches_two_bincounts(case):
    idx, mask, n_bins = case
    x, x_ns = kernels.hist_pair(idx, mask, n_bins)
    x_ref = np.bincount(idx, minlength=n_bins)
    x_ns_ref = np.bincount(idx[mask], minlength=n_bins)
    assert x.dtype == np.int64 and x_ns.dtype == np.int64
    assert x.tobytes() == np.ascontiguousarray(x_ref, np.int64).tobytes()
    assert x_ns.tobytes() == np.ascontiguousarray(x_ns_ref, np.int64).tobytes()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    low=st.integers(-20, 20),
    span=st.integers(1, 60),
    width=st.integers(1, 9),
    n=st.integers(0, 150),
    data=st.data(),
)
def test_int_bin_pair_matches_unfused(low, span, width, n, data):
    """Fused binning+count == IntegerBinning.bin_indices + hist_pair.

    ``span % width != 0`` exercises the ragged final bin: values under
    ``high`` but past the last full bin edge must land in the final
    (short) bin, exactly as the unfused path puts them.
    """
    high = low + span
    binning = IntegerBinning("v", low, high, width)
    values = np.asarray(
        data.draw(st.lists(st.integers(low, high - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    mask = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    x, x_ns = kernels.int_bin_pair(
        values, low, width, high, binning.n_bins, mask
    )
    idx = binning.bin_indices(ColumnarDatabase({"v": values}))
    x_ref, x_ns_ref = kernels.hist_pair(idx, mask, binning.n_bins)
    assert x.tobytes() == x_ref.tobytes()
    assert x_ns.tobytes() == x_ns_ref.tobytes()


def test_int_bin_pair_rejects_exactly_like_unfused():
    binning = IntegerBinning("v", 0, 10, 3)  # ragged final bin [9, 10)
    mask = np.ones(1, dtype=bool)
    for bad in (-1, 10, 11):
        with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
            kernels.int_bin_pair(
                np.array([bad]), 0, 3, 10, binning.n_bins, mask
            )
        with pytest.raises(ValueError):
            binning.bin_indices(ColumnarDatabase({"v": np.array([bad])}))
    # 9 is valid (final short bin), and both paths agree on it.
    x, x_ns = kernels.int_bin_pair(np.array([9]), 0, 3, 10, binning.n_bins, mask)
    assert x[binning.n_bins - 1] == 1 and x_ns[binning.n_bins - 1] == 1


def test_hist_pair_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        kernels.hist_pair(np.array([0, 4]), np.zeros(2, bool), 4)
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        kernels.hist_pair(np.array([-1]), np.zeros(1, bool), 4)


def test_counts_from_mask_still_validates_lengths():
    with pytest.raises(ValueError):
        counts_from_mask(np.array([0, 1]), np.zeros(3, bool), 2)


# ----------------------------------------------------------------------
# The full fused path vs the per-record reference (policy algebra)
# ----------------------------------------------------------------------


@st.composite
def flat_records(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    ages = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    cities = draw(st.lists(st.sampled_from(CITIES), min_size=n, max_size=n))
    opted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [
        {"age": a, "city": c, "opt_in": o}
        for a, c, o in zip(ages, cities, opted)
    ]


def flat_policies():
    leaves = st.one_of(
        st.integers(0, 99).map(
            lambda t: AttributePolicy(
                "age", lambda v, t=t: v <= t, name=f"age<={t}"
            )
        ),
        st.sets(st.sampled_from(CITIES), max_size=len(CITIES)).map(
            lambda vs: SensitiveValuePolicy("city", vs)
        ),
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


def binnings():
    return st.one_of(
        # width 7 leaves a ragged final bin over [0, 100); width 1 is
        # the dense/sparse extreme (100 bins over <= 48 records).
        st.sampled_from((1, 5, 7, 10)).map(
            lambda w: IntegerBinning("age", 0, 100, w)
        ),
        st.just(CategoricalBinning("city", CITIES)),
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    records=flat_records(),
    policy=flat_policies(),
    binning=binnings(),
    k=st.integers(1, 9),
)
def test_fused_histogram_input_matches_per_record(records, policy, binning, k):
    """from_columnar (fused kernel path) == from_database (per-record)."""
    db = ColumnarDatabase.from_records(records)
    query = HistogramQuery(binning)
    ref = HistogramInput.from_database(db, query, policy)
    fused = HistogramInput.from_columnar(db, query, policy)
    sharded = HistogramInput.from_columnar(db.shard(k), query, policy)
    for got in (fused, sharded):
        assert np.array_equal(got.x, ref.x)
        assert np.array_equal(got.x_ns, ref.x_ns)
        assert np.array_equal(got.sensitive_bin_mask, ref.sensitive_bin_mask)


def test_fused_counts_bails_to_none_off_the_fast_path():
    ints = np.arange(6)
    db_float = ColumnarDatabase({"v": ints.astype(np.float64)})
    db_int = ColumnarDatabase({"v": ints})
    mask = np.ones(6, dtype=bool)
    binning = IntegerBinning("v", 0, 6, 2)
    # Float column: not the integer fast path.
    assert db_float.fused_counts(binning, mask) is None
    # Categorical binning: no closed-form bin arithmetic to fuse.
    cat = CategoricalBinning("v", tuple(range(6)))
    assert db_int.fused_counts(cat, mask) is None

    # A subclass overriding bin_indices must not be silently bypassed.
    class Shifted(IntegerBinning):
        def bin_indices(self, columns):
            return super().bin_indices(columns)

    assert db_int.fused_counts(Shifted("v", 0, 6, 2), mask) is None
    # The plain binning on the plain column does fuse.
    assert db_int.fused_counts(binning, mask) is not None


def test_fused_counts_rejects_mask_length_mismatch():
    db = ColumnarDatabase({"v": np.arange(4)})
    with pytest.raises(ValueError, match="mask"):
        db.fused_counts(IntegerBinning("v", 0, 4, 1), np.ones(3, dtype=bool))


# ----------------------------------------------------------------------
# Samplers: seed determinism and distribution checks
# ----------------------------------------------------------------------


def _exact_pmf(n: int, p: float) -> np.ndarray:
    return np.array(
        [comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    )


def _chi2_ok(obs: np.ndarray, expected: np.ndarray) -> None:
    keep = expected > 5
    chi2 = float(((obs[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    assert dof >= 1
    assert chi2 < dof + 6 * np.sqrt(2 * dof), (chi2, dof)


def test_samplers_seed_deterministic():
    base = np.linspace(-3.0, 3.0, 32)
    for rows in (batch_sampling.laplace_rows, batch_sampling.one_sided_rows):
        a = rows(np.random.default_rng(9), 2.0, base, 40).copy()
        b = rows(np.random.default_rng(9), 2.0, base, 40).copy()
        assert a.tobytes() == b.tobytes()


def test_laplace_rows_chi_squared():
    scale = 1.7
    draws = batch_sampling.laplace_rows(
        np.random.default_rng(23), scale, np.zeros(500), 400
    ).ravel()
    edges = np.linspace(-6 * scale, 6 * scale, 25)
    obs = np.histogram(draws, bins=edges)[0]
    cdf = np.where(
        edges < 0,
        0.5 * np.exp(edges / scale),
        1 - 0.5 * np.exp(-edges / scale),
    )
    expected = np.diff(cdf) * draws.size
    _chi2_ok(obs, expected)


def test_one_sided_rows_chi_squared():
    scale = 2.3
    draws = batch_sampling.one_sided_rows(
        np.random.default_rng(29), scale, np.zeros(500), 400
    ).ravel()
    assert (draws <= 0).all()  # strictly one-sided
    edges = -np.linspace(0, 8 * scale, 25)[::-1]
    obs = np.histogram(draws, bins=edges)[0]
    cdf = np.exp(edges / scale)  # P(X <= t) = e^{t/scale}, t <= 0
    expected = np.diff(cdf) * draws.size
    _chi2_ok(obs, expected)


def test_binomial_rows_chi_squared():
    n, p = 12, 0.632
    draws = batch_sampling.binomial_inverse_cdf_rows(
        np.random.default_rng(7), np.full(500, n), p, 400
    ).ravel()
    obs = np.bincount(draws.astype(int), minlength=n + 1)
    _chi2_ok(obs, _exact_pmf(n, p) * draws.size)
