"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyst_warm --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the tracer off;
``--trace 1`` adds a traced stretch of the same length after the
untraced one and reports the per-layer metrics (and the tracing
overhead, from the two).  The metric names, units and directions are
those declared in ``BENCHMARK.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 when every correctness check passed, 1 when one
failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Deployments built per run; ``setup_s`` is their median.
SETUPS = 5


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _declared() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _filesystem(path: str) -> str:
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", path],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process (and every thread it starts later) to one CPU.

    Client, servers and load generator are threads of this one process
    and share its GIL.  Spread over two CPUs, every hand-off between
    them is a cross-CPU wake-up, and on a shared 2-vCPU machine that
    cost most of the loopback latency and swung with the host's
    scheduling from run to run (see README, "One CPU").  Returns the
    CPU used and how many the process could have used.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1], len(cpus)


def environment(workdir: str, pinned: int, cpus: int) -> dict:
    import numpy

    from repro.mechanisms import kernels

    return {
        "cpus": cpus,
        "pinned_to_cpu": pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend(),
        "git_sha": _git_sha(),
        "wal_journal_fs": _filesystem(workdir),
        "concurrency": "multi-core unverified (one CPU used"
        + ("" if cpus >= 4 else f"; {cpus} available, fewer than 4") + ")",
    }


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _us(values) -> float:
    return 1e6 * _median(values)


def _ratio(hits: float, misses: float) -> float:
    # No lookup at all (a layer the workload never reached) reads 1.0:
    # nothing missed.
    return hits / (hits + misses) if hits + misses else 1.0


#: Samples per block for the tail percentiles: ten beyond each p99.
TAIL_BLOCK = 1000


def _tail_p99(values) -> float:
    """The median, over consecutive blocks of at least ``TAIL_BLOCK``
    samples, of each block's 99th percentile; one block when there
    are fewer samples.  A slow patch of the shared machine moves one
    block, not the run's figure."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    blocks = np.array_split(values, max(1, len(values) // TAIL_BLOCK))
    return _median([_pct(block, 99) for block in blocks if len(block)])


#: Window of the completion-rate median, seconds.
RATE_WINDOW = 5.0


def _rate(ends, started: float, seconds: float, paced: bool) -> float:
    """Completions per second: for a closed loop, the median over the
    run's whole ``RATE_WINDOW`` windows; the plain rate for a paced
    caller (whose windows all count the same) or a shorter run."""
    import numpy as np

    windows = int(seconds // RATE_WINDOW)
    if paced or windows < 2:
        return len(ends) / seconds
    index = np.floor((np.asarray(ends) - started) / RATE_WINDOW).astype(int)
    counts = np.bincount(index.clip(0, windows), minlength=windows + 1)
    return float(np.median(counts[:windows])) / RATE_WINDOW


def _op_us(snapshots, op: str) -> float:
    """An RPC op's server-side latency: the median, over a traced
    phase's ``transport_stats`` snapshots, of each snapshot's p50."""
    return _us([s["op_latency"][op]["p50"] for s in snapshots if op in s["op_latency"]])


def end_to_end(phase, setup_times: list, paced: bool) -> dict:
    latencies_ms = [1e3 * t for t in phase.latencies]
    acks_ms = 1e3 * phase.acks
    return {
        "setup_s": _median(setup_times),
        "release_p50_ms": _pct(latencies_ms, 50),
        "releases_per_s": _rate(phase.ends, phase.started, phase.seconds, paced),
        "ingest_events_per_s": len(acks_ms) / phase.seconds,
        "ingest_ack_p50_ms": _pct(acks_ms, 50),
        "ingest_ack_p99_ms": _tail_p99(acks_ms),
        "mean_rel_error": (
            statistics.fmean(phase.rel_errors) if phase.rel_errors else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, untraced, traced, tracer, mechanisms) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and the attribution of
    one loopback release (analyst_warm) as printable rows."""
    spans = defaultdict(list)
    for row in tracer.spans():
        name = row[0]
        spans[name].append(row)
        if name.startswith(("mechanisms.run.", "data.shard_call.", "wal.log.")):
            spans[name.split(".", 2)[0] + "." + name.split(".", 2)[1] + ".*"].append(row)
    values = tracer.values

    def durations(name):
        return [r[3] - r[2] for r in spans.get(name, ())]

    releases = max(1, len(traced.latencies))
    name = workload.name
    m: dict = {}
    m["api.release_us"] = _us(durations("api.release"))
    m["api.release_p99_us"] = 1e6 * _tail_p99(durations("api.release"))
    for key in ("encode", "decode", "request_decode", "reply_encode"):
        m[f"wire.{key}_us"] = _us(values.get(f"wire.{key}", ()))
    m["wire.reply_bytes"] = _median(values.get("wire.reply_bytes", ()))

    # Server: the ReleaseServer work behind one release.
    if name == "analyst_warm":
        handle = durations("server.handle")
    elif name == "stream_cluster":
        per_rid = defaultdict(float)
        for span_name in ("server.hist_counts.ep0", "server.hist_counts.ep1"):
            for r in spans.get(span_name, ()):
                per_rid[r[1]] += r[3] - r[2]
        handle = list(per_rid.values())
    else:
        handle = durations("api.release")
    m["server.handle_us"] = _us(handle)
    m["server.assembly_us"] = _us(
        [r[2] - r[5] for r in spans.get("server.assembled", ())]
    )
    delta = traced.stats_delta
    m["server.hist_hit_ratio"] = _ratio(delta.get("hist_hits", 0), delta.get("hist_misses", 0))
    m["server.mask_hit_ratio"] = _ratio(delta.get("mask_hits", 0), delta.get("mask_misses", 0))
    m["server.index_hit_ratio"] = _ratio(delta.get("index_hits", 0), delta.get("index_misses", 0))
    m["server.evictions_per_release"] = delta.get("evictions", 0) / releases
    m["server.misses_per_release"] = (
        delta.get("hist_misses", 0)
        + delta.get("mask_misses", 0)
        + delta.get("index_misses", 0)
    ) / releases

    # RPC tier.
    transport = traced.extra.get("transport") or {}
    start = traced.extra.get("transport_start") or {}
    snapshots = traced.extra.get("transport_samples") or []
    refusals = ("overload_rejections", "deadline_rejections")
    if name == "analyst_warm":
        op = _op_us(snapshots, "release")
        m["rpc.op_us"] = op
        m["rpc.transport_us"] = m["api.release_us"] - op
        m["rpc.dispatch_us"] = op - m["server.handle_us"]
        m["rpc.rejections"] = float(
            sum(transport[k] - start[k] for k in refusals)
        )
    elif name == "stream_cluster":
        ops, dispatch, rejections = [], [], 0
        for ep, stats in transport.items():
            op = _op_us([snap[ep] for snap in snapshots], "hist_counts")
            ops.append(op)
            dispatch.append(op - _us(durations(f"server.hist_counts.{ep}")))
            rejections += sum(stats[k] - start[ep][k] for k in refusals)
        m["rpc.op_us"] = max(ops)
        m["rpc.dispatch_us"] = statistics.fmean(dispatch)
        m["rpc.rejections"] = float(rejections)
    else:
        m["rpc.op_us"] = m["rpc.dispatch_us"] = m["rpc.rejections"] = 0.0
    m.setdefault("rpc.transport_us", 0.0)

    # Data layer: executor-timed shard calls.
    shard_calls = spans.get("data.shard_call.*", ())
    m["data.shard_map_us"] = 1e6 * sum(r[3] - r[2] for r in shard_calls) / releases
    m["data.shard_calls_per_release"] = len(shard_calls) / releases

    # Mechanisms: run minus its budget charge.
    m["mechanisms.sample_us"] = _us([r[6] for r in spans.get("mechanisms.run.*", ())])
    for mech in mechanisms:
        m[f"mechanisms.sample_us.{mech}"] = _us(
            [r[6] for r in spans.get(f"mechanisms.run.{mech}", ())]
        )

    # Budget.
    charges = values.get("budget.charge_at", ())
    epoch = workload.accountant.epoch
    m["budget.charge_us"] = _us([dt for _, dt in charges])
    m["budget.charge_us_first_decile"] = _us(
        [dt for n, dt in charges if n < epoch / 10]
    )
    m["budget.charge_us_last_decile"] = _us(
        [dt for n, dt in charges if n >= epoch * 9 / 10]
    )
    lengths = [n for n, _ in charges]
    m["budget.ledger_len_start"] = float(min(lengths)) if lengths else 0.0
    m["budget.ledger_len_end"] = float(max(lengths)) if lengths else 0.0
    m["budget.journal_bytes_per_charge"] = _median(values.get("budget.journal_bytes", ()))
    m["budget.remaining_us"] = _us(durations("budget.remaining"))

    # WAL and ingest.
    m["wal.log_us"] = _us(durations("wal.log.*"))
    m["wal.bytes_per_event"] = _median(values.get("wal.bytes_per_event", ()))
    flushes = max(1, traced.flushes)
    m["wal.entries_per_flush"] = len(spans.get("wal.log.*", ())) / flushes
    m["ingest.flush_us"] = _us(durations("ingest.flush"))
    m["ingest.events_per_flush"] = traced.events / flushes
    m["ingest.expire_us"] = _us(durations("ingest.expire"))

    # Cluster coordinator.
    if name == "stream_cluster":
        slowest = defaultdict(float)
        for ep in ("ep0", "ep1"):
            for r in spans.get(f"server.hist_counts.{ep}", ()):
                slowest[r[1]] = max(slowest[r[1]], r[3] - r[2])
        m["cluster.release_us"] = m["api.release_us"]
        m["cluster.fanout_us"] = _us(list(slowest.values()))
        m["cluster.merge_us"] = _us(values.get("cluster.merge", ()))
        for op, key in (("prepare_write", "prepare"), ("commit_write", "commit")):
            m[f"cluster.{key}_us"] = max(
                _op_us([snap[ep] for snap in snapshots], op) for ep in transport
            )
        cluster = traced.extra.get("cluster") or {}
        m["cluster.retries"] = float(
            cluster.get("failovers", 0) + cluster.get("sweep_retries", 0)
        )
        # Per-release hist_counts round trips beyond the endpoint ops.
        m["rpc.transport_us"] = (
            m["server.assembly_us"] - sum(ops) - m["cluster.merge_us"]
        )
    else:
        for key in ("release", "fanout", "merge", "prepare", "commit"):
            m[f"cluster.{key}_us"] = 0.0
        m["cluster.retries"] = 0.0

    # Load generator and tracer.
    m["load.generator_late_ms"] = 1e3 * _pct(untraced.late, 99)
    base = _pct(untraced.latencies, 50)
    m["trace.overhead_pct"] = (
        100.0 * (_pct(traced.latencies, 50) - base) / base if base else 0.0
    )

    attribution = {}
    if name == "analyst_warm":
        parts = [
            ("client wire (encode + decode)", m["wire.encode_us"] + m["wire.decode_us"]),
            ("server wire (decode + reply encode)", m["wire.request_decode_us"] + m["wire.reply_encode_us"]),
            ("rpc dispatch (op - handle)", m["rpc.dispatch_us"]),
            ("server assembly", m["server.assembly_us"]),
            ("mechanism sampling", m["mechanisms.sample_us"]),
            ("budget charge + remaining", m["budget.charge_us"] + m["budget.remaining_us"]),
        ]
        handle_rest = (
            m["server.handle_us"]
            - m["server.assembly_us"]
            - m["mechanisms.sample_us"]
            - m["budget.charge_us"]
            - m["budget.remaining_us"]
        )
        parts.append(("server handle, other", handle_rest))
        attributed = sum(v for _, v in parts)
        m["attrib.unattributed_us"] = m["api.release_us"] - attributed
        parts.append(("unattributed (socket, wake-ups, GIL)", m["attrib.unattributed_us"]))
        attribution = dict(parts)
    else:
        m["attrib.unattributed_us"] = 0.0
    return m, attribution


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def _table(title: str, rows) -> None:
    print(f"== {title}")
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


COUNT_METRICS = (
    "wire.reply_bytes",
    "wal.bytes_per_event",
    "budget.journal_bytes_per_charge",
    "data.shard_calls_per_release",
    "wal.entries_per_flush",
    "server.misses_per_release",
    "server.evictions_per_release",
)


def main(argv=None) -> int:
    declared = _declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in declared["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned, cpus = pin_to_one_cpu()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401

        from probes import Tracer
        from workloads import COLD_MECHANISMS, WORKLOADS
    except ImportError as exc:
        _fail(f"cannot import the program from {ROOT}/src: {exc}")

    work_root = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    tracer = Tracer()
    cls = WORKLOADS[args.workload]
    setup_times = []
    workload = None
    try:
        for rep in range(SETUPS):
            candidate = cls(
                args.seed,
                os.path.join(work_root, f"setup-{rep}"),
                tracer,
                horizon=args.seconds * (2 if args.trace else 1),
            )
            t0 = time.perf_counter()
            try:
                candidate.setup()
            except BaseException:
                candidate.close()
                raise
            setup_times.append(time.perf_counter() - t0)
            if rep + 1 < SETUPS:
                candidate.close()
            else:
                workload = candidate
        env = environment(work_root, pinned, cpus)
        try:
            phases = workload.run(args.seconds, traced=bool(args.trace))
            workload.check()
        finally:
            workload.close()
    except Exception as exc:
        import traceback

        traceback.print_exc()
        _fail(f"workload {args.workload} did not run: {exc!r}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run still uses it

    untraced = phases[0]
    e2e = end_to_end(untraced, setup_times, workload.release_rate is not None)
    attempted = sum(
        len(p.latencies) + p.failures + p.flushes + p.expires + p.ingest_failures
        for p in phases
    )
    failed = sum(p.failures + p.ingest_failures for p in phases)
    correct = not workload.failures

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    _table("environment", ((k, v) for k, v in env.items()))
    _table("setup", [("setup_s runs", " ".join(_fmt(t) for t in setup_times))])
    concurrency = env["concurrency"] if args.workload == "analyst_warm" else ""
    units = {m["name"]: m for m in declared["end_to_end"]}
    rows = []
    for key, value in e2e.items():
        spec = units[key]
        note = ""
        if key.startswith("release_"):
            note = f"n={len(untraced.latencies)}"
        elif key.startswith("ingest_"):
            note = f"n={len(untraced.acks)}"
        elif key == "mean_rel_error":
            note = f"n={len(untraced.rel_errors)}"
        if key == "releases_per_s" and concurrency:
            note = concurrency
        if key == "releases_per_s" and workload.release_rate:
            note = f"paced: {workload.release_rate:g}/s offered"
        rows.append((key, _fmt(value), spec["unit"], spec["better"], note))
    # Printed, not declared: on stream_cluster the release tail is the
    # disk's fsync tail and no run-to-run figure of it holds a bound
    # (README, "Why release_p99_ms is not gated").
    rows.append(
        ("release_p99_ms", _fmt(_tail_p99([1e3 * t for t in untraced.latencies])),
         "ms", "lower", f"n={len(untraced.latencies)}, not gated")
    )
    rows.append(
        ("failed_ops_share", _fmt(failed / max(1, attempted)), "ratio", "lower",
         f"{failed} of {attempted}")
    )
    _table("end-to-end (tracer off)", rows)
    metrics = {k: {"value": v, "unit": units[k]["unit"]} for k, v in e2e.items()}

    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        layers, attribution = per_layer(
            workload, untraced, phases[1], tracer, COLD_MECHANISMS
        )
        _table(
            "per-layer (traced stretch)",
            ((k, _fmt(layers[k]), layer_units[k]) for k in layer_units),
        )
        _table(
            "exact-repeat counts",
            ((k, _fmt(layers[k]), layer_units[k]) for k in COUNT_METRICS),
        )
        if attribution:
            _table(
                "one loopback release, p50 us by layer",
                ((k, _fmt(v)) for k, v in attribution.items()),
            )
        metrics = {
            k: {"value": layers[k], "unit": unit} for k, unit in layer_units.items()
        }
    _table(
        "correctness",
        [("ok",)] if correct else [("FAILED", f) for f in workload.failures],
    )
    if workload.errors:
        _table("errors", [(e,) for e in workload.errors])
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
