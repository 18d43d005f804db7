"""Pool startup (pickle-ship vs shm-attach) + concurrent-RPC throughput.

Two PR-5 claims, measured:

* **Startup.**  `ShardWorkerPool` over pickled columns ships a full
  copy per worker (bytes and wall-clock scale with the table);
  shared-memory backing ships a ~100-byte descriptor per worker and
  attaches in O(1) — the table records both, at two database sizes, so
  the scaling difference is visible in one file
  (`benchmarks/results/pool_startup.txt`).
* **Concurrent reads.**  The RPC tier serves the read path under a
  shared lock; four warm-cache analyst threads against one server must
  beat the same request stream issued serially.  The aggregate
  throughput row lands in the same results file; the ≥2× bar is a
  `bench_regression` test that skips with a reason on hosts with fewer
  than 4 CPUs (cores cannot be conjured).

Tier-1 keeps only load-insensitive assertions: bit-identical masks on
both startup paths, descriptor-sized shm startup independent of record
count, and every concurrent response matching its serial twin.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest
from conftest import write_result

from repro.api import OsdpClient, ReleaseRequest
from repro.core.policy import OptInPolicy
from repro.data.columnar import ColumnarDatabase
from repro.data.store import shm_available
from repro.data.workers import ShardWorkerPool
from repro.evaluation.runner import format_table
from repro.queries.histogram import IntegerBinning
from repro.service import ReleaseServer
from repro.service.rpc import RpcServer

N_SHARDS = 4
SIZES = (200_000, 800_000)
N_BINS = 4_096
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 12
N_TRIALS = 16


def _database(n: int) -> ColumnarDatabase:
    rng = np.random.default_rng(11)
    return ColumnarDatabase(
        {
            "value": rng.integers(0, N_BINS, n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


def _time_pool_startup(shards, shm) -> tuple[float, dict]:
    start = time.perf_counter()
    pool = ShardWorkerPool(shards, shm=shm)
    elapsed = time.perf_counter() - start
    stats = pool.stats.as_dict()
    pool.close()
    return elapsed, stats


BINNING_SPEC = IntegerBinning("value", 0, N_BINS, 1).to_spec()
POLICY_SPEC = {"kind": "opt_in", "attr": "opt_in"}


def _request(seed: int) -> ReleaseRequest:
    return ReleaseRequest(
        "laplace",
        0.5,
        BINNING_SPEC,
        POLICY_SPEC,
        n_trials=N_TRIALS,
        seed=seed,
    )


def _measure_startup() -> list[list]:
    rows = []
    for n in SIZES:
        sharded = _database(n).shard(N_SHARDS)
        reference = sharded.mask(OptInPolicy())
        for shm, label in ((False, "pickle"), (None, "shm")):
            if shm is None and not shm_available():
                continue
            elapsed, stats = _time_pool_startup(sharded.shards, shm)
            # the paths must agree bit for bit before timings mean
            # anything
            with ShardWorkerPool(sharded.shards, shm=shm) as pool:
                assert np.array_equal(
                    sharded.with_executor(pool).mask(OptInPolicy()),
                    reference,
                )
            rows.append(
                [
                    n,
                    label,
                    elapsed * 1e3,
                    stats["startup_bytes"] / N_SHARDS,
                    stats["shm_shards"],
                ]
            )
    return rows


def _measure_concurrent_rpc() -> dict:
    """Serial vs 4-thread aggregate throughput on a warm-cache server."""
    db = _database(SIZES[0])
    server = ReleaseServer(db.shard(N_SHARDS))
    total = N_CLIENTS * REQUESTS_PER_CLIENT
    with RpcServer(server).start() as rpc:
        host, port = rpc.address
        with OsdpClient.connect(host, port) as client:
            client.release(_request(seed=0))  # warm the histogram cache

            start = time.perf_counter()
            serial = [
                client.release(_request(seed=1 + i)).estimates
                for i in range(total)
            ]
            serial_s = time.perf_counter() - start

            results: list = [None] * total

            def analyst(thread: int) -> None:
                for j in range(REQUESTS_PER_CLIENT):
                    index = thread * REQUESTS_PER_CLIENT + j
                    results[index] = client.release(
                        _request(seed=1 + index)
                    ).estimates

            threads = [
                threading.Thread(target=analyst, args=(t,))
                for t in range(N_CLIENTS)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            concurrent_s = time.perf_counter() - start
    return {
        "serial_s": serial_s,
        "concurrent_s": concurrent_s,
        "speedup": serial_s / concurrent_s,
        "serial": serial,
        "concurrent": results,
        "total": total,
    }


_RESULT: dict | None = None


def _measured() -> dict:
    global _RESULT
    if _RESULT is None:
        _RESULT = {
            "startup_rows": _measure_startup(),
            "rpc": _measure_concurrent_rpc(),
        }
    return _RESULT


def test_pool_startup_and_concurrent_rpc(benchmark):
    result = benchmark.pedantic(_measured, rounds=1, iterations=1)
    rows = result["startup_rows"]
    table = format_table(
        ["records", "path", "startup ms", "B/worker", "shm shards"],
        rows,
        float_format="{:.2f}",
    )
    rpc = result["rpc"]
    header = (
        f"pool startup, {N_SHARDS} workers (cpus={os.cpu_count()})\n"
        f"concurrent RPC: {rpc['total']} warm-cache laplace releases "
        f"({N_TRIALS}x{N_BINS} bins)\n"
        f"  serial 1 client:      {rpc['serial_s'] * 1e3:.1f} ms\n"
        f"  {N_CLIENTS} threaded clients:   "
        f"{rpc['concurrent_s'] * 1e3:.1f} ms\n"
        f"  aggregate speedup:    {rpc['speedup']:.2f}x\n"
    )
    write_result("pool_startup", header + "\n" + table)

    # Load-insensitive contracts only (wall-clock bars live in the
    # bench_regression lane):
    by_key = {(r[0], r[1]): r for r in rows}
    if (SIZES[0], "shm") in by_key:
        small, large = by_key[(SIZES[0], "shm")], by_key[(SIZES[1], "shm")]
        # descriptors, not columns: O(1) request bytes per worker,
        # independent of a 4x record growth (acceptance criterion)
        assert abs(large[3] - small[3]) < 100
        assert large[3] < 2_000
        assert large[4] == N_SHARDS
    # the pickle path ships the columns: per-worker bytes scale ~4x
    assert (
        by_key[(SIZES[1], "pickle")][3]
        > 3 * by_key[(SIZES[0], "pickle")][3]
    )
    # concurrency must never corrupt a response: every concurrent
    # seeded release matches its serial twin bit for bit
    for got, want in zip(rpc["concurrent"], rpc["serial"]):
        assert np.array_equal(got, want)


@pytest.mark.bench_regression
def test_shm_startup_ships_orders_of_magnitude_fewer_bytes():
    """The zero-copy claim as a regression bar: ≥100x fewer startup
    bytes per worker than the pickle shipment on the 800k-record table.

    Bytes, not wall-clock: process spawn dominates both paths' startup
    time at bench scale (the table in the results file records the
    timings for reference), while the shipment size is deterministic —
    if descriptor shipping ever silently falls back to pickled columns,
    or descriptors bloat, this trips regardless of machine load.
    """
    if not shm_available():
        pytest.skip("POSIX shared memory unavailable on this host")
    rows = {(r[0], r[1]): r for r in _measured()["startup_rows"]}
    pickle_bytes = rows[(SIZES[1], "pickle")][3]
    shm_bytes = rows[(SIZES[1], "shm")][3]
    assert pickle_bytes / shm_bytes >= 100.0, {
        "pickle_bytes_per_worker": pickle_bytes,
        "shm_bytes_per_worker": shm_bytes,
    }


@pytest.mark.bench_regression
def test_threaded_aggregate_exceeds_serial():
    """>1x aggregate: four threaded clients must at least beat serial.

    The kernel-tier acceptance row (ROADMAP item 3): four analyst
    threads on real cores must make the aggregate stream strictly
    faster than issuing the same requests serially.  Whether the numpy
    kernels clear it is unverified: no run on a >= 4-CPU host has been
    made, and the historical measurement sat below 1x (0.67x on the
    lane this bar was cut from) because every release held the GIL end
    to end.  Needs real cores: hosts under 4 CPUs skip with the reason.
    """
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"needs >= 4 CPUs for a concurrency bar (host has {cpus})"
        )
    rpc = _measured()["rpc"]
    assert rpc["speedup"] > 1.0, {
        "serial_s": rpc["serial_s"],
        "concurrent_s": rpc["concurrent_s"],
        "speedup": rpc["speedup"],
    }


@pytest.mark.bench_regression
def test_concurrent_rpc_throughput_bar():
    """≥2x aggregate read throughput for 4 concurrent warm-cache clients.

    The readers-writer acceptance bar: four analyst threads sharing one
    OsdpClient against one RpcServer must clear twice the serial-stream
    throughput.  Meaningful only with real cores on a quiet machine;
    hosts under 4 CPUs report a skip with the reason, not a pass.
    """
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"needs >= 4 CPUs for a concurrency bar (host has {cpus})"
        )
    rpc = _measured()["rpc"]
    assert rpc["speedup"] >= 2.0, {
        "serial_s": rpc["serial_s"],
        "concurrent_s": rpc["concurrent_s"],
        "speedup": rpc["speedup"],
    }
