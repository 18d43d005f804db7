"""The raw-speed kernel tier: one numpy implementation per primitive.

Every mechanism's hot loop bottoms out in the same handful of
primitives — fused ``(x, x_ns)`` histogram counting and the
inverse-transform noise transforms of
:mod:`repro.mechanisms.batch_sampling`.  Each public kernel here is its
input validation plus one numpy ufunc pipeline:

* the count kernels fuse the two-bincount ``(x, x_ns)`` construction
  into a single ``np.bincount`` pass over interleaved ``2*bin + mask``
  codes (exact integer arithmetic, so the fusion is byte-identical to
  the unfused pair);
* the binomial lookup inverts a group-lifted CDF table with one
  ``searchsorted`` (pure float comparisons);
* the noise transforms turn uniforms already drawn from the caller's
  generator into Laplace / one-sided Laplace noise, so a seeded release
  is one byte-for-byte reproducible stream.

Thread safety: the scratch pool is thread-local, so concurrent releases
(the RPC tier's normal traffic shape) never fill each other's buffers.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.mechanisms.kernels._constants import (
    _BINOM_U_EDGE,
    _EXP_ONE32,
    _LN4_32,
    _MANTISSA_SHIFT,
    _MIN_TSQ32,
    _MIN_U32,
    _SIGN32,
)

__all__ = [
    "active_backend",
    "check_bin_range",
    "hist_pair",
    "int_bin_pair",
    "binomial_lookup",
    "laplace_transform",
    "one_sided_transform",
]


def active_backend() -> str:
    """The name of the kernel implementation (always ``"numpy"``)."""
    return "numpy"


# ----------------------------------------------------------------------
# Shared scratch buffers (thread-local, LRU-bounded)
# ----------------------------------------------------------------------

_MAX_SCRATCH_ENTRIES = 16
# Per-thread pools: a buffer handed to one request must never be the
# buffer another thread is concurrently filling (concurrent releases
# are the RPC tier's normal traffic shape).
_scratch_local = threading.local()


def scratch(shape: tuple[int, ...], dtype: type, slot: int = 0) -> np.ndarray:
    """A reusable uninitialized buffer (avoids per-call mmap traffic).

    The pool is LRU-bounded: a miss beyond the bound evicts only the
    oldest entry (dict insertion order), and hits are touched to the
    back — alternating request shapes recycle cold buffers instead of
    dumping the whole pool.
    """
    pool: dict[tuple, np.ndarray] | None = getattr(
        _scratch_local, "pool", None
    )
    if pool is None:
        pool = _scratch_local.pool = {}
    key = (shape, np.dtype(dtype).str, slot)
    buf = pool.pop(key, None)
    if buf is None:
        if len(pool) >= _MAX_SCRATCH_ENTRIES:
            pool.pop(next(iter(pool)))
        buf = np.empty(shape, dtype=dtype)
    pool[key] = buf
    return buf


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------


def hist_pair(
    bin_indices: np.ndarray, ns_mask: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``(x, x_ns)`` int64 count pair in one pass over the records.

    ``x[b]`` counts every record in bin ``b``; ``x_ns[b]`` counts the
    records whose ``ns_mask`` entry is True.  Indices outside
    ``[0, n_bins)`` raise ``ValueError`` (a binning that silently drops
    records must fail loudly).
    """
    bin_indices = np.ascontiguousarray(bin_indices, dtype=np.int64)
    ns_mask = np.ascontiguousarray(ns_mask, dtype=bool)
    check_bin_range(bin_indices, n_bins)
    return _fused_counts(bin_indices, ns_mask, int(n_bins))


def int_bin_pair(
    values: np.ndarray,
    low: int,
    width: int,
    high: int,
    n_bins: int,
    ns_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused equal-width integer binning + ``(x, x_ns)`` counts.

    The single-call form of ``IntegerBinning.bin_indices`` followed by
    :func:`hist_pair`.  ``values`` must lie in ``[low, high)`` (checked
    against ``high`` itself, not the last bin's upper edge, so a ragged
    final bin rejects exactly what the unfused binning rejects).
    Byte-identical to the unfused path.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    ns_mask = np.ascontiguousarray(ns_mask, dtype=bool)
    low = int(low)
    width = int(width)
    high = int(high)
    in_range = (values >= low) & (values < high)
    if not np.all(in_range):
        offender = int(values[np.flatnonzero(~in_range)[0]])
        raise ValueError(
            f"value {offender!r} outside [{low}, {high})"
        )
    idx = values - low
    if width != 1:
        idx //= width
    return _fused_counts(idx, ns_mask, int(n_bins))


def _fused_counts(
    bin_indices: np.ndarray, ns_mask: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """One bincount over ``2*bin + mask`` codes (validated input)."""
    fused = bin_indices << 1
    fused += ns_mask
    counts = np.bincount(fused, minlength=2 * n_bins)
    x_ns = np.ascontiguousarray(counts[1::2]).astype(np.int64, copy=False)
    x = (counts[::2] + x_ns).astype(np.int64, copy=False)
    return x, x_ns


def check_bin_range(bin_indices: np.ndarray, n_bins: int) -> None:
    """Raise ``ValueError`` unless every index lies in ``[0, n_bins)``."""
    if not len(bin_indices):
        return
    lo = bin_indices.min()
    hi = bin_indices.max()
    if lo < 0 or hi >= n_bins:
        bad = int(lo if lo < 0 else hi)
        raise ValueError(
            f"record mapped to bin {bad}, outside [0, {n_bins})"
        )


def binomial_lookup(
    scaled: np.ndarray,
    inverse: np.ndarray,
    k_flat: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Invert the group-lifted binomial CDF table for a uniform matrix.

    ``u`` is clamped off the lattice edges, lifted by its column's
    group id, and inverted by one ``np.searchsorted(..., side="left")``
    over ``scaled``.  Returns float64 outcome rows; consumes ``u`` as
    scratch.
    """
    np.clip(u, _BINOM_U_EDGE, 1.0 - _BINOM_U_EDGE, out=u)
    u += inverse[np.newaxis, :]
    idx = np.searchsorted(scaled, u.ravel(), side="left")
    return k_flat[idx].reshape(u.shape).astype(np.float64)


def laplace_transform(
    bits: np.ndarray, scale: float, base: np.ndarray
) -> np.ndarray:
    """``base + Lap(scale)`` from raw 23-bit uniforms, as float64 rows.

    ``bits`` is a ``(rows, cols)`` uint32 matrix of raw generator words
    (consumed as scratch); ``base`` broadcasts along rows.  See
    :func:`repro.mechanisms.batch_sampling.laplace_rows` for the
    transform's derivation.

    23 mantissa bits under a fixed exponent give a float in ``[1, 2)``;
    subtracting 1.5 centers it to ``t in [-1/2, 1/2)``.  ``ln|2t|`` is
    computed as ``(ln(t^2) + ln 4) / 2`` to reuse the squaring pass,
    and the sign is applied by XOR-ing ``t``'s sign bit into the
    float32 noise, which avoids a ``copysign`` pass.
    """
    scale = float(scale)
    shape = bits.shape
    w = scratch(shape, np.float32, 1)
    np.right_shift(bits, _MANTISSA_SHIFT, out=bits)
    np.bitwise_or(bits, _EXP_ONE32, out=bits)
    t = bits.view(np.float32)                 # uniform on [1, 2)
    t -= np.float32(1.5)                      # t in [-1/2, 1/2)
    np.multiply(t, t, out=w)                  # t^2
    np.maximum(w, _MIN_TSQ32, out=w)          # guard log(0) at t = 0
    np.log(w, out=w)
    np.add(w, _LN4_32, out=w)                 # ln(4 t^2) = 2 ln|2t|
    np.multiply(w, np.float32(0.5 * scale), out=w)   # scale * ln|2t| <= 0
    tv = t.view(np.uint32)
    wv = w.view(np.uint32)
    np.bitwise_and(tv, _SIGN32, out=tv)       # sign(t) as a bit mask
    np.bitwise_xor(wv, tv, out=wv)            # random +/- magnitude
    out = np.empty(shape)
    np.add(base, w, out=out)                  # fused f32 -> f64 widen + add
    return out


def one_sided_transform(
    u: np.ndarray, scale: float, values: np.ndarray
) -> np.ndarray:
    """``values + scale * ln(u)`` (one-sided Laplace), as float64 rows.

    ``u`` is a ``(rows, cols)`` float32 uniform matrix already drawn
    from the caller's generator (consumed as scratch); ``values``
    broadcasts along rows.  The log runs in float32 and is widened in
    the final add.
    """
    np.maximum(u, _MIN_U32, out=u)            # guard log(0) at u = 0
    np.log(u, out=u)
    np.multiply(u, np.float32(float(scale)), out=u)  # scale * ln u <= 0
    out = np.empty(u.shape)
    np.add(values, u, out=out)
    return out
