import numpy as np
import pytest

from volcnn import nn
from volcnn.tensor import RngStream

from gradcheck import ALL_CHECKS, _gauss
from oracles import fd_grad, max_rel_err, to_nhwc

TOL = 1e-4


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_backward_matches_finite_differences(name, seed):
    err = ALL_CHECKS[name](seed)
    assert err < TOL, f"{name} seed {seed}: rel err {err:.2e}"


def test_conv_spec_shape_case():
    # 2->3 channels, 3x3 kernel, 6x6 input, 64-bit, h=1e-5
    rng = RngStream(2024)
    layer = nn.Conv2d(2, 3)
    layer.weights = _gauss(rng, 3, 2, 3, 3) * 0.5
    layer.bias = _gauss(rng, 3) * 0.1
    x = to_nhwc(_gauss(rng, 1, 2, 6, 6))
    r = to_nhwc(_gauss(rng, 1, 3, 6, 6))
    loss = lambda: float(np.sum(layer.forward_nhwc(x) * r))
    gx, gw, gb = layer.backward_nhwc(x, r)
    assert max_rel_err(gx, fd_grad(loss, x)) < TOL
    assert max_rel_err(gw, fd_grad(loss, layer.weights)) < TOL
    assert max_rel_err(gb, fd_grad(loss, layer.bias)) < TOL
