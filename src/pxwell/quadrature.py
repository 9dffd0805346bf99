"""Gauss-Legendre and Gauss-Kronrod rules, built once per node count and shared.

`np.polynomial.legendre.leggauss` solves an eigenproblem on every call, and
the radial quadratures and the ODE falsifier ask for the same few node counts
again and again.  Each rule is built on first use and cached; its arrays are
read-only, so no caller can corrupt the shared copy.  Nothing is built at
import, and the Kronrod rule needs no linear-algebra routine beyond the
symmetric eigenvalue solve that `leggauss` already runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre", "gauss_kronrod"]


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    _read_only(nodes, weights)
    return nodes, weights


def _kronrod_jacobi(n: int) -> np.ndarray:
    """The coefficients b_0..b_2n of the Jacobi-Kronrod matrix of the Legendre
    weight, by Laurie's algorithm (Math. Comp. 66, 1997, 1133-1145).  The
    weight is even, so every diagonal coefficient a_k is 0 and the terms of
    the algorithm that carry one drop out.  b_0 = 2 is the weight's mass, and
    the matrix's off-diagonal is sqrt(b_1..b_2n)."""
    b = np.zeros(2 * n + 1)
    k = np.arange(1.0, -(-3 * n // 2) + 1)  # the Legendre b_k the matrix keeps
    b[0], b[1:k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    # Laurie's arrays s[-1..n//2] and t[-1..n//2], stored at offset 1
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for j in range((m + 1) // 2, -1, -1):
            u += b[j + n + 1] * s[j] - b[m - j] * s[j + 1]
            s[j + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for i in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + i
            u += b[m - i] * s[j + 2] - b[i + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=None)
def gauss_kronrod(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1] and its embedded n-point
    Gauss-Legendre rule, as (nodes, Kronrod weights, Gauss weights).

    nodes[:n] are the Gauss nodes of `gauss_legendre(n)`, bit for bit, and the
    Gauss weights are that rule's own array; nodes[n:] are the n + 1 Kronrod
    nodes in ascending order, which interlace the Gauss nodes.  The Kronrod
    rule integrates polynomials of degree 3n + 1 exactly (Kronrod 1965).  Its
    nodes are the eigenvalues of the Jacobi-Kronrod matrix, the new ones
    polished by one Newton step on its characteristic polynomial, and each
    weight is 1 / sum_k q_k(x)^2 over the matrix's orthonormal polynomials.
    """
    gauss, gauss_weights = gauss_legendre(n)
    b = _kronrod_jacobi(n)
    root_b = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(root_b[1:], 1) + np.diag(root_b[1:], -1))[0::2]
    p, p_prev, dp, dp_prev = np.ones_like(x), np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(2 * n + 1):  # the monic characteristic polynomial and its derivative
        p, p_prev, dp, dp_prev = x * p - b[k] * p_prev, p, x * dp + p - b[k] * dp_prev, dp
    x = x - p / dp
    nodes = np.concatenate((gauss, 0.5 * (x - x[::-1])))
    q, q_prev = np.full_like(nodes, 1.0 / root_b[0]), np.zeros_like(nodes)
    norm = q * q
    for k in range(2 * n):  # the orthonormal polynomials q_1 .. q_2n
        q, q_prev = (nodes * q - root_b[k] * q_prev) / root_b[k + 1], q
        norm += q * q
    weights = 1.0 / norm
    weights[:n] = 0.5 * (weights[:n] + weights[n - 1::-1])
    weights[n:] = 0.5 * (weights[n:] + weights[:n - 1:-1])
    _read_only(nodes, weights)
    return nodes, weights, gauss_weights
