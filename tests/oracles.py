"""Independent reference implementations used as test oracles.

These are deliberately written the slow, obvious way (nested loops, direct
formulas) and never share code with the library paths they check.  They
take feature maps in (N, C, H, W) order; the library is channels-last, so a
test moves its arrays across with ``to_nhwc``/``to_nchw``.
"""

import numpy as np


def to_nhwc(x):
    return np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))


def to_nchw(x):
    return np.ascontiguousarray(np.transpose(x, (0, 3, 1, 2)))


def conv2d_reference(x, weights, bias):
    """Same-padded stride-1 cross-correlation, quadruple loop, float64.

    x: (N, C, H, W); weights: (K, C, kh, kw); bias: (K,).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    N, C, H, W = x.shape
    K, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    y = np.zeros((N, K, H, W), dtype=np.float64)
    for n in range(N):
        for k in range(K):
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for c in range(C):
                        for di in range(kh):
                            for dj in range(kw):
                                ii = i + di - ph
                                jj = j + dj - pw
                                if 0 <= ii < H and 0 <= jj < W:
                                    acc += x[n, c, ii, jj] * w[k, c, di, dj]
                    y[n, k, i, j] = acc + b[k]
    return y


def conv2d_backward_reference(x, weights, grad_out):
    """Gradients of conv2d_reference w.r.t. x, weights and bias, float64 loops.

    x: (N, C, H, W); weights: (K, C, kh, kw); grad_out: (N, K, H, W).
    Each output cell sends grad_out times every weight back to the input
    cell it read, and grad_out times every input cell to the weight that
    read it.  Returns (gx, gw, gb).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    N, C, H, W = x.shape
    K, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(K, dtype=np.float64)
    for n in range(N):
        for k in range(K):
            for i in range(H):
                for j in range(W):
                    gy = g[n, k, i, j]
                    gb[k] += gy
                    for c in range(C):
                        for di in range(kh):
                            for dj in range(kw):
                                ii = i + di - ph
                                jj = j + dj - pw
                                if 0 <= ii < H and 0 <= jj < W:
                                    gx[n, c, ii, jj] += gy * w[k, c, di, dj]
                                    gw[k, c, di, dj] += gy * x[n, c, ii, jj]
    return gx, gw, gb


def batchnorm_train_reference(x, gamma, beta, epsilon):
    """Train-mode batch norm, one channel at a time, float64 two-pass statistics.

    x: (N, C, H, W); gamma, beta: (C,).  Returns y in float64.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.empty_like(x)
    for c in range(x.shape[1]):
        plane = x[:, c]
        mean = plane.sum() / plane.size
        var = ((plane - mean) ** 2).sum() / plane.size
        y[:, c] = (plane - mean) / np.sqrt(var + epsilon) * gamma[c] + beta[c]
    return y


def maxpool2x2_reference(x, grad_out):
    """2x2/2 max pool and its gradient, by loops over every window.

    x: (N, C, H, W) with H and W even; grad_out: (N, C, H/2, W/2).  Each
    window's gradient goes to its first maximum in row-major order, so ties
    land on the earliest cell.  Returns (y, gx).
    """
    N, C, H, W = x.shape
    y = np.zeros((N, C, H // 2, W // 2), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=grad_out.dtype)
    for n in range(N):
        for c in range(C):
            for i in range(H // 2):
                for j in range(W // 2):
                    bi, bj = 2 * i, 2 * j
                    for di in range(2):
                        for dj in range(2):
                            if x[n, c, 2 * i + di, 2 * j + dj] > x[n, c, bi, bj]:
                                bi, bj = 2 * i + di, 2 * j + dj
                    y[n, c, i, j] = x[n, c, bi, bj]
                    gx[n, c, bi, bj] = grad_out[n, c, i, j]
    return y, gx


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f() w.r.t. array x.

    f reads x by reference; x is perturbed in place and restored.
    """
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a, b, floor=1e-6):
    """Largest elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def adam_scalar_reference(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam on a scalar, plain python floats."""
    x, m, v = float(x0), 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        x = x - lr * mh / (vh ** 0.5 + eps)
    return x
