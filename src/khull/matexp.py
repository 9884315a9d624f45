"""Matrix exponential (scipy's Pade scaling and squaring) and skew
matrices."""

from __future__ import annotations

import numpy as np
import scipy

__all__ = ["matrix_exponential", "skew_matrix", "skew_dim"]


def matrix_exponential(a): return scipy.linalg.expm(a)


def skew_dim(d):
    return d * (d - 1) // 2


def skew_matrix(params, d):
    """Skew-symmetric matrix from its d(d-1)/2 upper-triangle entries."""
    c = np.zeros((d, d))
    i, j = np.triu_indices(d, 1)
    c[i, j] = params
    c[j, i] = np.negative(params)
    return c
