"""Finite-difference gradient checks for every layer backward pass.

Each check builds a random small instance in float64, forms the scalar
loss L = sum(R * f(x)) for a fixed random cotangent R, and compares the
analytic vector-Jacobian products against central differences (h=1e-5).
Returns the worst elementwise relative error across all checked gradients.
Feature maps are drawn in (N, C, H, W) order and moved to the library's
channels-last layout once, before the check.
"""

import numpy as np

from volcnn import nn
from volcnn.tensor import RngStream

from oracles import fd_grad, max_rel_err, to_nhwc

H_FD = 1e-5


def _gauss(rng, *shape):
    """Float64 normals of the given shape: float32 draws, cast."""
    return rng.gaussian32(int(np.prod(shape))).reshape(shape).astype(np.float64)


def check_conv(seed):
    rng = RngStream(seed)
    cin = 1 + int(rng.integers(1, 3)[0])
    cout = 1 + int(rng.integers(1, 3)[0])
    hw = 4 + 2 * int(rng.integers(1, 2)[0])
    n = 1 + int(rng.integers(1, 2)[0])
    layer = nn.Conv2d(cin, cout)
    layer.weights = _gauss(rng, cout, cin, 3, 3) * 0.5
    layer.bias = _gauss(rng, cout) * 0.1
    x = to_nhwc(_gauss(rng, n, cin, hw, hw))
    r = to_nhwc(_gauss(rng, n, cout, hw, hw))
    loss = lambda: float(np.sum(layer.forward_nhwc(x) * r))
    gx, gw, gb = layer.backward_nhwc(x, r)
    return max(
        max_rel_err(gx, fd_grad(loss, x, H_FD)),
        max_rel_err(gw, fd_grad(loss, layer.weights, H_FD)),
        max_rel_err(gb, fd_grad(loss, layer.bias, H_FD)),
    )


def check_batchnorm(seed):
    rng = RngStream(seed)
    c = 1 + int(rng.integers(1, 3)[0])
    n = 2 + int(rng.integers(1, 2)[0])
    hw = 4
    layer = nn.BatchNorm2d(c)
    layer.gamma = 0.5 + rng.uniform(c)
    layer.beta = _gauss(rng, c) * 0.3
    x = to_nhwc(_gauss(rng, n, c, hw, hw) * 2.0)
    r = to_nhwc(_gauss(rng, n, c, hw, hw))

    def loss():
        y, _ = layer.forward_train_nhwc(x)
        return float(np.sum(y * r))

    _, cache = layer.forward_train_nhwc(x)
    gx, gg, gb = layer.backward_nhwc(cache, r)
    return max(
        max_rel_err(gx, fd_grad(loss, x, H_FD)),
        max_rel_err(gg, fd_grad(loss, layer.gamma, H_FD)),
        max_rel_err(gb, fd_grad(loss, layer.beta, H_FD)),
    )


def check_dense(seed):
    rng = RngStream(seed)
    fin = 2 + int(rng.integers(1, 5)[0])
    fout = 1 + int(rng.integers(1, 4)[0])
    n = 1 + int(rng.integers(1, 3)[0])
    layer = nn.Dense(fin, fout)
    layer.weights = _gauss(rng, fout, fin) * 0.5
    layer.bias = _gauss(rng, fout) * 0.1
    x = _gauss(rng, n, fin)
    r = _gauss(rng, n, fout)
    loss = lambda: float(np.sum(layer.forward(x) * r))
    gx, gw, gb = layer.backward(x, r)
    return max(
        max_rel_err(gx, fd_grad(loss, x, H_FD)),
        max_rel_err(gw, fd_grad(loss, layer.weights, H_FD)),
        max_rel_err(gb, fd_grad(loss, layer.bias, H_FD)),
    )


def check_relu(seed):
    rng = RngStream(seed)
    x = _gauss(rng, 3, 7)
    x += np.sign(x) * 0.01  # keep elements away from the kink
    r = _gauss(rng, 3, 7)
    loss = lambda: float(np.sum(nn.relu(x) * r))
    gx = nn.relu_backward(nn.relu(x), r)
    return max_rel_err(gx, fd_grad(loss, x, H_FD))


def check_maxpool(seed):
    rng = RngStream(seed)
    n, c = 2, 2
    x = to_nhwc(_gauss(rng, n, c, 4, 6))
    r = to_nhwc(_gauss(rng, n, c, 2, 3))
    loss = lambda: float(np.sum(nn.maxpool2x2_forward_nhwc(x)[0] * r))
    _, idx = nn.maxpool2x2_forward_nhwc(x)
    gx = nn.maxpool2x2_backward_nhwc(idx, r)
    return max_rel_err(gx, fd_grad(loss, x, H_FD))


def check_gap(seed):
    rng = RngStream(seed)
    x = to_nhwc(_gauss(rng, 2, 3, 4, 4))
    r = _gauss(rng, 2, 3)
    loss = lambda: float(np.sum(nn.gap_forward_nhwc(x) * r))
    gx = nn.gap_backward_nhwc(x.shape, r)
    return max_rel_err(gx, fd_grad(loss, x, H_FD))


def check_sigmoid(seed):
    rng = RngStream(seed)
    x = _gauss(rng, 3, 5)
    r = _gauss(rng, 3, 5)
    loss = lambda: float(np.sum(nn.sigmoid(x) * r))
    gx = nn.sigmoid_backward(nn.sigmoid(x), r)
    return max_rel_err(gx, fd_grad(loss, x, H_FD))


def check_dropout_fixed_mask(seed):
    rng = RngStream(seed)
    layer = nn.Dropout(0.4)
    x = _gauss(rng, 4, 6)
    _, mask = layer.forward(x, mode="train", rng=rng.fork("mask"))
    r = _gauss(rng, 4, 6)
    loss = lambda: float(np.sum(x * mask * r))
    gx = layer.backward(mask, r)
    return max_rel_err(gx, fd_grad(loss, x, H_FD))


def check_bce(seed):
    rng = RngStream(seed)
    n = 4 + int(rng.integers(1, 5)[0])
    p = 0.05 + 0.9 * rng.uniform(n)
    y = (rng.uniform(n) < 0.5).astype(np.float64)
    loss = lambda: nn.bce_loss(p, y)[0]
    _, grad = nn.bce_loss(p, y)
    return max_rel_err(grad, fd_grad(loss, p, H_FD))


ALL_CHECKS = {
    "conv": check_conv,
    "batchnorm": check_batchnorm,
    "dense": check_dense,
    "relu": check_relu,
    "maxpool": check_maxpool,
    "global_avg_pool": check_gap,
    "sigmoid": check_sigmoid,
    "dropout_fixed_mask": check_dropout_fixed_mask,
    "bce": check_bce,
}
