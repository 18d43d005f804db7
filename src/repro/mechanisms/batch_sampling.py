"""Vectorized noise kernels for the batched multi-trial release paths.

``release_batch`` implementations draw their ``(n_trials, n_bins)``
noise matrices here instead of looping ``n_trials`` numpy sampler
calls.  Three ideas carry all of the speedup:

1. **Ufunc pipelines instead of scalar C loops.**  numpy's
   ``Generator.laplace`` runs one scalar ``log`` per variate inside the
   distributions C loop; an inverse-transform built from SIMD-vectorized
   ufuncs (``np.log`` over a whole matrix) produces the same
   distribution several times faster.  Magnitudes come from
   single-precision uniforms — noise granularity ~1e-7 relative, far
   below every mechanism's noise scale — and are widened to float64 in
   the final fused add.

2. **Support-restricted sampling.**  Binomial thinning and the clipped
   one-sided Laplace release are *deterministically zero* on bins with
   ``x_ns = 0``, so on sparse histograms only the support needs noise.
   Zero-count entries are also the most expensive part of numpy's
   array-``n`` binomial loop (per-element sampler setup), so skipping
   them wins twice.

3. **Setup amortization.**  Scratch buffers are reused across calls to
   keep the large temporaries out of the mmap/page-fault path, and
   binomial inputs are sorted so numpy's per-``(n, p)`` sampler setup
   is reused across equal counts.  All randomness is drawn from — or
   deterministically seeded by — the caller's generator, so a seeded
   run is fully reproducible.

The kernels are **distribution-exact** (up to float32 uniform
granularity in the inverse transforms); they are *not* stream-identical
to the per-trial ``release`` loop.  For bitwise reproduction of the
paper's spawned-rng protocol, pass ``release_batch`` a *sequence* of
generators — that mode delegates to ``release`` row by row.

The transforms themselves are the numpy kernels of
:mod:`repro.mechanisms.kernels`.  All randomness is drawn here, from
the caller's generator — the kernels only transform already-drawn
uniforms — so a seeded release is one byte-for-byte reproducible
stream.

Thread safety: the scratch buffers **and the bulk-bits generator** are
thread-local (each thread reuses its own pool and its own SFC64), so
concurrent releases — the RPC tier serves the read path under a shared
lock — never write into each other's noise and never interleave draws
from a shared bitgen stream; the binomial/log-factorial table pools
hold immutable values and only ever rebind or insert under the GIL, so
the worst concurrent case is a redundant identical build.
"""

from __future__ import annotations

import numpy as np

from repro.mechanisms import kernels as _kernels
from repro.mechanisms.kernels import (  # re-exported for callers/tests
    _MAX_SCRATCH_ENTRIES,
    _scratch_local,
    scratch as _scratch,
)
from repro.mechanisms.kernels._constants import (
    _BINOM_U_EDGE,
    _EXP_ONE32,
    _HALF32,
    _LN4_32,
    _MANTISSA_SHIFT,
    _MIN_TSQ32,
    _MIN_U32,
    _SIGN32,
)


def _bulk_bits_generator(rng: np.random.Generator) -> np.random.BitGenerator:
    """A 64-bit-word SFC64 bit generator deterministically seeded from ``rng``.

    ``random_raw`` word width depends on the bit generator — MT19937
    words carry only 32 random bits in a uint64 — so raw-bit kernels
    must not read the caller's stream directly.  Instead a
    **thread-local** SFC64 is reseeded from four ``rng`` draws (uniform
    64-bit words are a valid SFC64 state, and assigning state skips the
    construction cost), which works for every Generator and keeps runs
    reproducible.  Thread-locality is load-bearing: a module-level
    bitgen would let two concurrent releases interleave draws from one
    stream — breaking seeded reproducibility and correlating two
    analysts' noise (the ``_scratch_local`` pattern, applied to the
    generator itself).
    """
    bitgen = getattr(_scratch_local, "sfc_bitgen", None)
    if bitgen is None:
        bitgen = _scratch_local.sfc_bitgen = np.random.SFC64(0)
        _scratch_local.sfc_template = bitgen.state
    state = _scratch_local.sfc_template
    state["state"]["state"] = rng.integers(0, 2**64, size=4, dtype=np.uint64)
    bitgen.state = state
    return bitgen


def laplace_rows(
    rng: np.random.Generator,
    scale: float,
    base: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """``base + Lap(scale)`` iid, as an ``(n_rows, len(base))`` matrix.

    Inverse transform from one 23-bit uniform per variate:
    ``t ~ U[-1/2, 1/2)``, then ``X = sign(t) * scale * (-ln|2t|)`` is
    Laplace(scale) — ``|2t|`` is uniform so ``-ln|2t|`` is Exp(1), and
    the sign is an independent fair coin.

    ``t`` is built straight from raw 64-bit SFC64 words with the
    exponent trick (23 mantissa bits under a fixed exponent give a
    float in ``[1, 2)``; subtracting 1.5 centers it), which costs about
    half of a ``Generator.random`` float fill.  ``ln|2t|`` is computed
    as ``(ln(t^2) + ln 4) / 2`` to reuse the squaring pass, and the
    sign is applied by XOR-ing ``t``'s sign bit into the float32 noise,
    which avoids a ``copysign`` pass.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    base = np.asarray(base, dtype=np.float64)
    shape = (n_rows, base.shape[-1])
    n = n_rows * base.shape[-1]
    # Two 32-bit lanes per raw word; the slice view stays contiguous.
    # The draw happens here, on the caller's (thread-local) generator;
    # the kernel only transforms the already-drawn bits.
    raw = _bulk_bits_generator(rng).random_raw((n + 1) // 2)
    bits = raw.view(np.uint32)[:n].reshape(shape)
    return _kernels.laplace_transform(bits, scale, base)


def one_sided_rows(
    rng: np.random.Generator,
    scale: float,
    values: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """``values + Lap^-(scale)`` iid, as an ``(n_rows, len(values))`` matrix.

    One-sided Laplace noise is ``scale * ln(u)`` for ``u ~ U(0,1]``
    (Definition 5.1: the negated exponential).
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    values = np.asarray(values, dtype=np.float64)
    shape = (n_rows, values.shape[-1])
    u = _scratch(shape, np.float32, 0)
    rng.random(dtype=np.float32, out=u)
    return _kernels.one_sided_transform(u, scale, values)


# Window half-width for the inverse-CDF binomial tables, in standard
# deviations.  Binomial tails are sub-Gaussian, so the truncated mass is
# below ~1e-30 per tail — far under the float64 CDF rounding the
# transform already carries, and under the f32 uniform granularity the
# other kernels accept.
_BINOM_WINDOW_SIGMAS = 12.0
# Build tables only when the draw matrix is big enough to amortize them.
# The tables are cached across calls — the trial/request traffic both
# the sweep and the release server generate reuses one (counts, p) pair
# many times — so the ratio is well above 1; below the threshold
# numpy's per-draw loop wins outright.
_BINOM_TABLE_DRAW_RATIO = 16.0
# (_BINOM_U_EDGE — the uniform edge clamp — lives in
# repro.mechanisms.kernels._constants, shared with the kernels.)

_MAX_BINOM_TABLES = 8
_binom_table_pool: dict[tuple, tuple] = {}
_binom_size_pool: dict[tuple, int] = {}


def _pool_insert(pool: dict, key, value) -> None:
    """Bounded insert: evict the oldest entry, never the whole pool."""
    if len(pool) >= _MAX_BINOM_TABLES:
        pool.pop(next(iter(pool)))
    pool[key] = value

_logfact_table = np.zeros(1)


def _log_factorials(n_max: int) -> np.ndarray:
    """``ln k!`` for ``k in [0, n_max]`` (a growing module-level table)."""
    global _logfact_table
    if len(_logfact_table) <= n_max:
        size = max(n_max + 1, 2 * len(_logfact_table))
        table = np.zeros(size)
        np.cumsum(np.log(np.arange(1, size)), out=table[1:])
        _logfact_table = table
    return _logfact_table


def _binomial_windows(
    uniq: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-distinct-count support windows ``[lo, hi]`` covering the mass."""
    mean = uniq * p
    half = _BINOM_WINDOW_SIGMAS * np.sqrt(mean * (1.0 - p)) + 1.0
    lo = np.maximum(np.floor(mean - half), 0.0).astype(np.int64)
    hi = np.minimum(np.ceil(mean + half), uniq).astype(np.int64)
    return lo, hi


def _binom_key(counts: np.ndarray, p: float) -> tuple:
    """The table-pool key of a ``(counts, p)`` pair (content hash)."""
    return (float(p), len(counts), hash(counts.tobytes()))


def _binomial_table(counts: np.ndarray, p: float) -> tuple:
    """The grouped inverse-CDF table for ``(counts, p)``, cached.

    The table depends only on the distinct counts and ``p`` — exactly
    the pair that repeats across a sweep's trials and a server's
    request stream over one histogram — so it is built once and reused
    (the binomial analog of the scratch-buffer amortization above).
    Returns ``(inverse, scaled, k_flat)``: the per-column group ids,
    the group-lifted CDF array, and the flat outcome values.
    """
    key = _binom_key(counts, p)
    hit = _binom_table_pool.get(key)
    if hit is not None:
        return hit
    uniq, inverse = np.unique(counts, return_inverse=True)
    lo, hi = _binomial_windows(uniq, p)
    widths = hi - lo + 1
    offsets = np.concatenate([[0], np.cumsum(widths)])
    starts = offsets[:-1]
    k_flat = (
        np.arange(int(offsets[-1]))
        - np.repeat(starts, widths)
        + np.repeat(lo, widths)
    )
    n_flat = np.repeat(uniq, widths)
    logfact = _log_factorials(int(uniq[-1]))
    log_pmf = (
        logfact[n_flat]
        - logfact[k_flat]
        - logfact[n_flat - k_flat]
        + k_flat * np.log(p)
        + (n_flat - k_flat) * np.log1p(-p)
    )
    cdf = np.cumsum(np.exp(log_pmf))
    base = np.concatenate([[0.0], cdf[offsets[1:-1] - 1]])
    mass = cdf[offsets[1:] - 1] - base
    # Per-group CDF in (0, 1] (the last entry of each group divides to
    # exactly 1.0), lifted by the group index so one sorted array
    # serves every group: a query ``u + g`` lies strictly inside group
    # ``g``'s span once ``u`` is clamped off the lattice edges.
    scaled = (cdf - np.repeat(base, widths)) / np.repeat(mass, widths)
    scaled += np.repeat(np.arange(len(uniq), dtype=np.float64), widths)
    entry = (inverse, scaled, k_flat)
    _pool_insert(_binom_table_pool, key, entry)
    return entry


def binomial_inverse_cdf_rows(
    rng: np.random.Generator,
    counts: np.ndarray,
    p: float,
    n_rows: int,
) -> np.ndarray:
    """``Binomial(n_j, p)`` per column via grouped inverse-CDF tables.

    The dense-support fast path: instead of one BTPE rejection draw per
    matrix entry, the distinct counts are grouped and every group gets
    one explicit CDF table over its high-mass window (``±12`` standard
    deviations, truncating ~1e-30 of tail mass — far below the
    transform's own float64 rounding).  All groups' tables live in one
    flat array whose per-group CDFs are normalized to ``(0, 1]`` and
    lifted by the group index, so a single ``np.searchsorted`` over one
    uniform matrix inverts every draw at once — no per-group Python
    loop, no per-draw rejection — and the table is cached across calls
    (see :func:`_binomial_table`).  Distribution-exact up to the
    float64 CDF rounding and the ``2^-26`` edge clamp; not
    stream-identical to ``Generator.binomial``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    inverse, scaled, k_flat = _binomial_table(counts, p)
    u = rng.random((n_rows, len(counts)))
    return _kernels.binomial_lookup(scaled, inverse, k_flat, u)


def binomial_support_rows(
    rng: np.random.Generator,
    sorted_counts: np.ndarray,
    p: float,
    n_rows: int,
) -> np.ndarray:
    """``Binomial(n_j, p)`` per column, counts pre-sorted ascending.

    Two regimes.  When the matrix holds enough draws to amortize
    (cached) CDF tables over the distinct counts, the grouped
    inverse-CDF transform (:func:`binomial_inverse_cdf_rows`) samples
    the whole matrix in one searchsorted pass — the dense-support
    (searchlogs-like) fast path.  Otherwise numpy's per-draw loop wins;
    the pre-sorted counts still matter there, since the binomial
    sampler caches its BTPE/inversion setup while consecutive
    ``(n, p)`` pairs repeat.  Returns float64 rows.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    sorted_counts = np.asarray(sorted_counts, dtype=np.int64)
    if sorted_counts.size == 0:
        return np.zeros((n_rows, 0))
    if 0.0 < p < 1.0:
        # The route is a pure function of (counts, p, n_rows) — cache
        # state must never pick the path, or a seeded request would
        # stop being reproducible across process histories.  Only the
        # table-size computation is memoized (it is itself pure).
        key = _binom_key(sorted_counts, p)
        table_size = _binom_size_pool.get(key)
        if table_size is None:
            uniq = np.unique(sorted_counts)
            lo, hi = _binomial_windows(uniq, p)
            table_size = int(np.sum(hi - lo + 1))
            _pool_insert(_binom_size_pool, key, table_size)
        n_draws = n_rows * len(sorted_counts)
        if table_size <= _BINOM_TABLE_DRAW_RATIO * n_draws:
            return binomial_inverse_cdf_rows(rng, sorted_counts, p, n_rows)
    return rng.binomial(
        sorted_counts, p, size=(n_rows, len(sorted_counts))
    ).astype(np.float64)


def scatter_rows(
    values: np.ndarray, columns: np.ndarray, n_bins: int
) -> np.ndarray:
    """Place per-support-column rows into a zero-filled full-domain matrix."""
    out = np.zeros((values.shape[0], n_bins))
    out[:, columns] = values
    return out
