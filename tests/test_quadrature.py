from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxwell
from pxwell.quadrature import gauss_kronrod, gauss_legendre


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_cached_rule_is_leggauss_and_read_only(n):
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_array_equal(weights, ref_weights)
    # one shared rule per node count, which no caller can overwrite
    assert gauss_legendre(n)[0] is nodes and gauss_legendre(n)[1] is weights
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        weights *= 2.0
    np.testing.assert_array_equal(gauss_legendre(n)[1], ref_weights)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
def test_kronrod_rule_is_exact_to_degree_3n_plus_1(n):
    # the Legendre polynomials P_k integrate to 2 (k = 0) and 0 (k >= 1);
    # the rule is exact through degree 3n + 1, and odd degrees vanish by
    # symmetry, so the first degree it misses is the first even one above
    nodes, kronrod, _ = gauss_kronrod(n)
    assert nodes.shape == kronrod.shape == (2 * n + 1,)
    values = np.polynomial.legendre.legvander(nodes, 3 * n + 3).T @ kronrod
    exact = np.zeros(3 * n + 4)
    exact[0] = 2.0
    np.testing.assert_allclose(values[:3 * n + 2], exact[:3 * n + 2], rtol=0.0, atol=1e-15)
    missed = 3 * n + 2 if n % 2 == 0 else 3 * n + 3
    assert abs(values[missed]) > 1e-6


@pytest.mark.parametrize("n", [1, 4, 7, 16])
def test_kronrod_rule_embeds_the_gauss_rule_and_is_read_only(n):
    nodes, kronrod, gauss = gauss_kronrod(n)
    ref_nodes, ref_weights = gauss_legendre(n)
    np.testing.assert_array_equal(nodes[:n], ref_nodes)
    np.testing.assert_array_equal(gauss, ref_weights)
    # the n + 1 Kronrod nodes interlace the Gauss nodes inside (-1, 1)
    interlaced = np.empty(2 * n + 1)
    interlaced[0::2], interlaced[1::2] = nodes[n:], nodes[:n]
    assert np.all(np.diff(interlaced) > 0.0) and -1.0 < interlaced[0] and interlaced[-1] < 1.0
    assert np.all(kronrod > 0.0)
    rule = gauss_kronrod(n)
    assert all(a is b for a, b in zip(rule, (nodes, kronrod, gauss)))
    for array in rule:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_importing_the_cli_builds_no_kronrod_rule():
    code = ("import pxwell.cli\n"
            "from pxwell.quadrature import gauss_kronrod\n"
            "print(gauss_kronrod.cache_info().currsize)\n")
    src = str(Path(pxwell.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert proc.stdout.split() == ["0"]
