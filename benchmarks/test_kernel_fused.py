"""Fused count kernel vs the classic unfused construction.

The kernel-tier claim, measured: producing ``(x, x_ns)`` straight from
the value column in one pass (``ColumnarDatabase.fused_counts`` →
``kernels.int_bin_pair``) must beat the unfused three-pass construction
(bin indices materialized, then two ``np.bincount`` calls with a mask
gather in between).  The table — per config: records, bin width,
unfused ms, fused ms, speedup — lands in
``benchmarks/results/kernel_fused.txt``.

Tier-1 keeps only the load-insensitive assertion: both constructions
agree bit for bit on every bench config.  The wall-clock speedup bar is
a ``bench_regression`` test.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import write_result

from repro.data.columnar import ColumnarDatabase
from repro.evaluation.runner import format_table
from repro.mechanisms import kernels
from repro.queries.histogram import IntegerBinning

N_BINS = 4_096
# (records, bin width): width 1 is the dense DPBench shape; width 3
# leaves a ragged final bin, the unfused path's fiddliest case.
CONFIGS = ((500_000, 1), (2_000_000, 1), (2_000_000, 3))
REPEATS = 7


def _workload(n: int):
    rng = np.random.default_rng(11)
    db = ColumnarDatabase(
        {
            "value": rng.integers(0, N_BINS, n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )
    ns = rng.random(n) < 0.5
    return db, ns


def _unfused(db, binning, ns):
    idx = binning.bin_indices(db)
    x = np.bincount(idx, minlength=binning.n_bins)
    x_ns = np.bincount(idx[ns], minlength=binning.n_bins)
    return (
        np.ascontiguousarray(x, dtype=np.int64),
        np.ascontiguousarray(x_ns, dtype=np.int64),
    )


def _best_of(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def _measure() -> list[list]:
    rows = []
    for n, width in CONFIGS:
        db, ns = _workload(n)
        binning = IntegerBinning("value", 0, N_BINS, width)
        fused = db.fused_counts(binning, ns)
        assert fused is not None  # the bench workload must stay fused
        reference = _unfused(db, binning, ns)
        # timings mean nothing unless the paths agree bit for bit
        assert fused[0].tobytes() == reference[0].tobytes()
        assert fused[1].tobytes() == reference[1].tobytes()
        unfused_s = _best_of(_unfused, db, binning, ns)
        fused_s = _best_of(db.fused_counts, binning, ns)
        rows.append(
            [n, width, unfused_s * 1e3, fused_s * 1e3, unfused_s / fused_s]
        )
    return rows


_ROWS: list[list] | None = None


def _measured() -> list[list]:
    global _ROWS
    if _ROWS is None:
        _ROWS = _measure()
    return _ROWS


def test_fused_counts_bench(benchmark):
    rows = benchmark.pedantic(_measured, rounds=1, iterations=1)
    table = format_table(
        ["records", "width", "unfused ms", "fused ms", "speedup"],
        rows,
        float_format="{:.2f}",
    )
    header = (
        f"fused (x, x_ns) kernel vs unfused bincount construction "
        f"({N_BINS} bins)\n"
        f"kernel backend: {kernels.active_backend()}\n"
    )
    write_result("kernel_fused", header + "\n" + table)
    # Bit-identity was asserted per config inside _measure(); nothing
    # wall-clock-sensitive is allowed to fail tier-1.


@pytest.mark.bench_regression
def test_fused_counts_speedup_bar():
    """The fused pass must hold >=1.2x over the unfused construction.

    Measured ~2x on the numpy backend (one bincount over interleaved
    codes vs index materialization + mask gather + two bincounts); the
    bar sits at 1.2x so machine noise does not flake it, while a
    silently de-fused path (falling back to three passes) still trips.
    Judged on the largest config, where the per-pass cost dominates.
    """
    rows = _measured()
    largest = max(rows, key=lambda r: r[0])
    assert largest[4] >= 1.2, {
        "records": largest[0],
        "width": largest[1],
        "unfused_ms": largest[2],
        "fused_ms": largest[3],
        "speedup": largest[4],
    }
