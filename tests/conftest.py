"""Shared oracles for the test suite.

The gradient oracle is central finite differences evaluated in double
precision; it re-runs the forward function per probe, so it is completely
independent of the reverse-mode engine it checks.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest


@pytest.fixture
def switch_often():
    """Switch threads every microsecond while the test runs, so that work
    dealt to threads interleaves as finely as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def numeric_grad(forward, tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``forward()`` w.r.t. every element of
    ``tensor``.  ``forward`` must return a float and read ``tensor.data``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = forward()
        flat[i] = orig - h
        fm = forward()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
