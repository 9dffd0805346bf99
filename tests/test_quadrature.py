from __future__ import annotations

import numpy as np
import pytest

from pxwell.quadrature import gauss_legendre


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
