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


def batchnorm_train_backward_reference(x, gamma, epsilon, grad_out):
    """Gradients of train-mode batch norm, one channel at a time, in float64.

    x, grad_out: (N, C, H, W); gamma: (C,).  Returns (gx, grad_gamma, grad_beta).
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    C = x.shape[1]
    gx = np.empty_like(x)
    grad_gamma = np.empty(C)
    grad_beta = np.empty(C)
    for c in range(C):
        plane, gy = x[:, c], grad_out[:, c]
        mean = plane.sum() / plane.size
        std = np.sqrt(((plane - mean) ** 2).sum() / plane.size + epsilon)
        xhat = (plane - mean) / std
        grad_beta[c] = gy.sum()
        grad_gamma[c] = (gy * xhat).sum()
        gx[:, c] = gamma[c] / std * (
            gy - grad_beta[c] / plane.size - xhat * grad_gamma[c] / plane.size)
    return gx, grad_gamma, grad_beta


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



def _keys_cubic(t, a=-0.75):
    """Keys (1981) cubic convolution kernel at offset t."""
    t = abs(t)
    if t <= 1.0:
        return (a + 2.0) * t ** 3 - (a + 3.0) * t ** 2 + 1.0
    if t < 2.0:
        return a * (t ** 3 - 5.0 * t ** 2 + 8.0 * t - 4.0)
    return 0.0


def bicubic_resize_reference(image, target):
    """Cubic-convolution resize of (C, H, W) to (C, *target), float64.

    Output pixel (i, j) samples the source at ((i + 0.5) * H / th - 0.5,
    (j + 0.5) * W / tw - 0.5) and sums its 4x4 neighbours weighted by the
    kernel in each axis; a neighbour outside the image reads the nearest
    border pixel.  The result is clipped to [0, 1].  Unlike the other
    oracles this one is channels-first without a batch axis, as the
    library's resize is.
    """
    x = np.asarray(image, dtype=np.float64)
    C, H, W = x.shape
    th, tw = target
    out = np.zeros((C, th, tw), dtype=np.float64)
    for i in range(th):
        sy = (i + 0.5) * H / th - 0.5
        y0 = int(np.floor(sy))
        for j in range(tw):
            sx = (j + 0.5) * W / tw - 0.5
            x0 = int(np.floor(sx))
            for yy in range(y0 - 1, y0 + 3):
                wy = _keys_cubic(sy - yy)
                for xx in range(x0 - 1, x0 + 3):
                    wx = _keys_cubic(sx - xx)
                    out[:, i, j] += wy * wx * x[:, min(max(yy, 0), H - 1),
                                                min(max(xx, 0), W - 1)]
    return np.clip(out, 0.0, 1.0)


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


_MASK64 = (1 << 64) - 1


def splitmix64_reference(seed, n):
    """First n outputs of SplitMix64 (Steele, Lea and Flood 2014) from a 64-bit
    seed, as python ints: the state steps by the golden gamma, and each new
    state goes through the xor-shift-multiply finaliser, all mod 2**64."""
    state, out = seed & _MASK64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def uniform_reference(seed, n):
    """Doubles in [0, 1) from the top 53 bits of each SplitMix64 output."""
    return [(z >> 11) / 2.0 ** 53 for z in splitmix64_reference(seed, n)]


def smooth_field_reference(params, h, w, lo, hi):
    """The synthetic generator's smooth field, one cosine per pixel and mode.

    params holds 4 uniforms per mode (ky, kx, phase, amp, each before its
    affine map).  Each mode adds amp * cos(2*pi*(ky*y + kx*x) + phase) at
    every pixel, y = row / h and x = col / w, in mode order; the float64
    sum is rescaled into [lo, hi] and cast to float32.
    """
    y, x = np.mgrid[0:h, 0:w]
    yy, xx = y / h, x / w
    field = np.zeros((h, w))
    for m in range(len(params) // 4):
        ky = 0.5 + 3.0 * params[4 * m]
        kx = 0.5 + 3.0 * params[4 * m + 1]
        phase = 2 * np.pi * params[4 * m + 2]
        amp = 0.5 + params[4 * m + 3]
        field += amp * np.cos(2 * np.pi * (ky * yy + kx * xx) + phase)
    fmin, fmax = field.min(), field.max()
    field = (field - fmin) / max(fmax - fmin, 1e-9)
    return (lo + (hi - lo) * field).astype(np.float32)
