"""Constants shared by the kernels and the batched samplers.

Kept in a leaf module so :mod:`repro.mechanisms.kernels` and
:mod:`repro.mechanisms.batch_sampling` can both import them without
cycles.  The values define the noise transforms' bit-level behavior:
changing one changes every seeded release stream.
"""

from __future__ import annotations

import numpy as np

_SIGN32 = np.uint32(0x80000000)
_EXP_ONE32 = np.uint32(0x3F800000)  # f32 bit pattern of 1.0
_MANTISSA_SHIFT = np.uint32(9)
_HALF32 = np.float32(0.5)
_LN4_32 = np.float32(np.log(4.0))
# log(0) guards clamp the zero lattice cell to the *adjacent lattice
# point* — the natural inverse-transform behavior — rather than to an
# arbitrary tiny value (which would emit ~69-sigma outliers with the
# lattice's 2^-23 probability instead of the true ~1e-13 tail mass).
_MIN_U32 = np.float32(2.0**-24)     # rng.random(float32) lattice step
_MIN_TSQ32 = np.float32(2.0**-46)   # (2^-23)^2: smallest nonzero t^2

# Uniforms are clamped away from the exact 0/1 lattice edges so that
# ``u + group`` can never round onto a group boundary; the ~2^-26
# edge-cell distortion is below the f32 uniform granularity the other
# kernels run on.
_BINOM_U_EDGE = 2.0**-26
