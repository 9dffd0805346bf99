"""Gauss-Legendre rules, built once per node count and shared.

`np.polynomial.legendre.leggauss` solves an eigenproblem on every call, and
the radial quadratures and the ODE falsifier ask for the same few node counts
again and again.  Each rule is built on first use and cached; its arrays are
read-only, so no caller can corrupt the shared copy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre"]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
