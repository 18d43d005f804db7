"""Tests for histogram queries and HistogramInput."""

import numpy as np
import pytest

from repro.core.policy import AttributePolicy
from repro.data.database import Database
from repro.queries.histogram import (
    BinLayout,
    CategoricalBinning,
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    Product2DBinning,
    counts_from_mask,
    flatten_2d,
)


class TestCategoricalBinning:
    def test_bin_of(self):
        binning = CategoricalBinning("color", ["red", "green", "blue"])
        assert binning.bin_of({"color": "green"}) == 1
        assert binning.n_bins == 3

    def test_unknown_value_rejected(self):
        binning = CategoricalBinning("color", ["red"])
        with pytest.raises(ValueError):
            binning.bin_of({"color": "pink"})

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValueError):
            CategoricalBinning("c", ["a", "a"])


class TestIntegerBinning:
    def test_unit_width(self):
        binning = IntegerBinning("age", 0, 100)
        assert binning.n_bins == 100
        assert binning.bin_of({"age": 42}) == 42

    def test_wider_bins(self):
        binning = IntegerBinning("age", 0, 100, width=10)
        assert binning.n_bins == 10
        assert binning.bin_of({"age": 35}) == 3

    def test_ceil_division_for_partial_last_bin(self):
        binning = IntegerBinning("v", 0, 95, width=10)
        assert binning.n_bins == 10

    def test_out_of_range(self):
        binning = IntegerBinning("age", 0, 10)
        with pytest.raises(ValueError):
            binning.bin_of({"age": 10})

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegerBinning("v", 5, 5)
        with pytest.raises(ValueError):
            IntegerBinning("v", 0, 5, width=0)


class TestProduct2D:
    def test_row_major_index(self):
        binning = Product2DBinning(
            IntegerBinning("a", 0, 3), IntegerBinning("b", 0, 4)
        )
        assert binning.n_bins == 12
        assert binning.shape == (3, 4)
        assert binning.bin_of({"a": 2, "b": 1}) == 9

    def test_flatten_2d(self):
        grid = np.arange(12).reshape(3, 4)
        assert np.array_equal(flatten_2d(grid), np.arange(12))


class TestHistogramQuery:
    def test_evaluate_counts(self):
        db = Database([{"age": 5}, {"age": 5}, {"age": 7}])
        query = HistogramQuery(IntegerBinning("age", 0, 10))
        assert np.array_equal(
            query.evaluate(db), [0, 0, 0, 0, 0, 2, 0, 1, 0, 0]
        )

    def test_sensitivity_is_two(self):
        query = HistogramQuery(IntegerBinning("age", 0, 10))
        assert query.sensitivity == 2.0


class TestHistogramInput:
    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            HistogramInput(x=np.zeros(3), x_ns=np.zeros(4))

    def test_validation_sub_histogram(self):
        with pytest.raises(ValueError):
            HistogramInput(x=np.array([1.0]), x_ns=np.array([2.0]))

    def test_validation_non_negative(self):
        with pytest.raises(ValueError):
            HistogramInput(x=np.array([-1.0]), x_ns=np.array([-1.0]))

    def test_validation_1d_only(self):
        with pytest.raises(ValueError):
            HistogramInput(x=np.zeros((2, 2)), x_ns=np.zeros((2, 2)))

    def test_x_sensitive(self, small_hist):
        assert np.array_equal(
            small_hist.x_sensitive, small_hist.x - small_hist.x_ns
        )

    def test_non_sensitive_ratio(self):
        hist = HistogramInput(x=np.array([8.0, 2.0]), x_ns=np.array([4.0, 1.0]))
        assert hist.non_sensitive_ratio == pytest.approx(0.5)

    def test_from_database_builds_mask(self):
        records = [
            {"age": 15, "group": 0},  # minor -> sensitive
            {"age": 30, "group": 1},
            {"age": 16, "group": 2},  # minor-only bin
            {"age": 40, "group": 1},
        ]
        db = Database(records)
        policy = AttributePolicy("age", lambda a: a <= 17)
        query = HistogramQuery(IntegerBinning("group", 0, 3))
        hist = HistogramInput.from_database(db, query, policy)
        assert np.array_equal(hist.x, [1, 2, 1])
        assert np.array_equal(hist.x_ns, [0, 2, 0])
        assert np.array_equal(hist.sensitive_bin_mask, [True, False, True])

    def test_mask_shape_validated(self):
        with pytest.raises(ValueError):
            HistogramInput(
                x=np.zeros(3),
                x_ns=np.zeros(3),
                sensitive_bin_mask=np.zeros(4, dtype=bool),
            )


class TestBinLayout:
    """The cached per-shard layout counts exactly like ``hist_pair``."""

    @staticmethod
    def _assert_matches(indices, n_bins, seed=0):
        layout = BinLayout(indices, n_bins)
        ns = np.random.default_rng(seed).random(len(indices)) < 0.4
        x, x_ns = layout.counts(ns)
        ref_x, ref_x_ns = counts_from_mask(indices, ns, n_bins)
        assert x.dtype == x_ns.dtype == np.int64
        assert np.array_equal(x, ref_x)
        assert np.array_equal(x_ns, ref_x_ns)
        return layout

    def test_sorted_indices_need_no_permutation(self):
        indices = np.repeat(np.arange(0, 40, 3), 5)
        layout = self._assert_matches(indices, 40)
        assert layout.order is None

    def test_shuffled_indices_match_hist_pair(self):
        rng = np.random.default_rng(1)
        layout = self._assert_matches(rng.integers(0, 300, 5000), 300)
        assert layout.order is not None

    def test_wide_domain_sorts_on_the_full_key(self):
        # More bins than a 16-bit key can hold: indices above 65535
        # must not wrap into low bins.
        n_bins = 70_000
        rng = np.random.default_rng(2)
        indices = rng.choice(
            np.array([0, 5, 65_535, 65_536, 65_541, n_bins - 1]), 4000
        )
        layout = self._assert_matches(indices, n_bins)
        assert layout.order is not None
        assert set(layout.nz) == {0, 5, 65_535, 65_536, 65_541, n_bins - 1}

    def test_x_is_shared_and_read_only(self):
        layout = BinLayout(np.array([2, 0, 2]), 3)
        x_a, _ = layout.counts(np.array([True, False, False]))
        x_b, x_ns = layout.counts(np.array([False, True, True]))
        assert x_a is x_b is layout.x
        assert not layout.x.flags.writeable
        assert x_ns.tolist() == [1, 0, 1]

    def test_empty_shard_counts_zeros(self):
        layout = BinLayout(np.empty(0, dtype=np.int64), 4)
        x, x_ns = layout.counts(np.empty(0, dtype=bool))
        assert x.tolist() == x_ns.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_index_raises_at_build(self, bad):
        with pytest.raises(ValueError, match="outside \\[0, 5\\)"):
            BinLayout(np.array([0, bad, 4]), 5)

    def test_mask_length_mismatch_rejected(self):
        layout = BinLayout(np.array([0, 1, 1]), 2)
        with pytest.raises(ValueError, match="covers 3 records"):
            layout.counts(np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="covers 3 records"):
            layout.counts(np.ones(2, dtype=bool))
