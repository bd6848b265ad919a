"""Miller's power recurrence one jet at a time, with no plan and no cache.

The reference that ``oscpair.purity._power_nd`` must match bit for bit: the
coefficients of ``a**alpha`` truncated to ``a.shape``, degree by degree, in a
buffer zero-padded by the largest shift on each axis, with one gemv per degree
on the weights ``a_mu / a0 * ((alpha + 1)|mu| - d) / d``, rounded in that
order, and no division after it. Nothing is imported from ``oscpair``.
"""

from __future__ import annotations

import numpy as np


def reference_power_nd(a: np.ndarray, alpha: float) -> np.ndarray:
    shape = a.shape
    a0 = float(a.flat[0])
    mus = np.argwhere(a)
    mus = mus[mus.sum(axis=1) > 0]
    a_mu = a[tuple(mus.T)]
    mu_degree = mus.sum(axis=1)

    pad = mus.max(axis=0, initial=0)
    buf = np.zeros(np.add(shape, pad))
    strides = np.array(buf.strides) // buf.itemsize
    flat = buf.reshape(-1)
    mu_offset = mus @ strides

    exponents = np.indices(shape).reshape(a.ndim, -1)
    degree = exponents.sum(axis=0)
    position = (exponents + pad[:, None]).T @ strides

    flat[position[0]] = a0 ** alpha
    for d in range(1, degree.max() + 1):
        pos = position[degree == d]
        weights = a_mu / a0 * ((alpha + 1.0) * mu_degree - d) / d
        flat[pos] = weights @ flat[pos - mu_offset[:, None]]
    return buf[tuple(slice(p, None) for p in pad)].copy()
