"""Layers, loss and optimizer for the eruption-detector CNNs.

Every forward and backward pass is hand-derived and runs on plain numpy
arrays; there is no autodiff graph.  Feature maps are channels-last
(N, H, W, C) throughout, so the im2col GEMMs and per-channel reductions hit
contiguous memory.  Composites are stored (C, H, W); a caller transposes
once, at the model input, and never again.  Weights keep their canonical
layouts: conv (out, in, kh, kw), dense (out, in).

Convolution is stride (1, 1) with "same" zero padding and is evaluated as
one GEMM per band of output rows over an im2col matrix with (kh, kw, c)
column order.  The backward pass reuses that path: the gradient w.r.t. the
input is the same-padded correlation of grad_out with the kernel flipped in
both spatial axes and its in/out channels swapped, and the gradient w.r.t.
the weights is the input's im2col matrix, transposed, times grad_out.

Default hyperparameters follow the conventions of the training-framework
family this detector was prototyped with: Adam(lr=1e-3, 0.9, 0.999, 1e-8),
batchnorm momentum 0.99 / epsilon 1e-3, dropout rate 0.5 with inverted
scaling, binary cross-entropy inputs clamped to [1e-7, 1 - 1e-7].
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateBatchError,
    InvalidParameterError,
    ShapeError,
)
from .tensor import DEFAULT_DTYPE, RngStream

BCE_CLAMP = 1e-7
# Byte budget of one im2col band in Conv2d._correlate.  A whole-image patch
# matrix per call (28 MB at 512x512x3) left a pruned-net request's peak RSS
# varying by up to 23 MB from run to run; few-MB bands keep it within 3 MB.
_BAND_BYTES = 1 << 22


def _nhwc(shape):
    """Return shape, the (N, H, W, C) of a feature map; ShapeError unless 4-d."""
    if len(shape) != 4:
        raise ShapeError(f"expected 4-d (N, H, W, C) input, got shape {tuple(shape)}")
    return shape


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


class Conv2d:
    """3x3-style convolution, stride (1, 1), "same" zero padding.

    weights: (out_channels, in_channels, kh, kw); bias: (out_channels,).
    """

    def __init__(self, in_channels, out_channels, kernel=(3, 3), dtype=DEFAULT_DTYPE):
        kh, kw = kernel
        if kh % 2 != 1 or kw % 2 != 1:
            raise InvalidParameterError("kernel dims must be odd for same padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kh, kw)
        self.dtype = np.dtype(dtype)
        self.weights = np.zeros((out_channels, in_channels, kh, kw), dtype=dtype)
        self.bias = np.zeros(out_channels, dtype=dtype)

    def init_params(self, rng: RngStream):
        """He-normal weights, zero bias."""
        fan_in = self.in_channels * self.kernel[0] * self.kernel[1]
        std = np.sqrt(2.0 / fan_in)
        n = self.weights.size
        self.weights = (rng.gaussian(n).reshape(self.weights.shape) * std).astype(self.dtype)
        self.bias = np.zeros(self.out_channels, dtype=self.dtype)

    # GEMM layout: (kh * kw * in, out), matching im2col column order (kh, kw, c).
    def _gemm_weights(self):
        kh, kw = self.kernel
        return np.ascontiguousarray(
            self.weights.transpose(2, 3, 1, 0).reshape(kh * kw * self.in_channels,
                                                       self.out_channels))

    def _im2col(self, img, r0, r1):
        """Same-padded ((r1-r0)*W, kh*kw*C) patch matrix of rows r0:r1 of one
        (H, W, C) image, columns in (kh, kw, c) order."""
        kh, kw = self.kernel
        ph, pw = kh // 2, kw // 2
        H, W, C = img.shape
        lo, hi = max(r0 - ph, 0), min(r1 + ph, H)
        band = np.pad(img[lo:hi], ((lo - r0 + ph, r1 + ph - hi), (pw, pw), (0, 0)))
        win = sliding_window_view(band, (kh, kw), axis=(0, 1))  # (r1-r0, W, C, kh, kw)
        return win.transpose(0, 1, 3, 4, 2).reshape((r1 - r0) * W, kh * kw * C)

    def _correlate(self, x, wg):
        """Same-padded correlation of (N, H, W, C) x with GEMM weights wg, one
        GEMM per band of output rows whose patch matrix fits _BAND_BYTES."""
        N, H, W, C = x.shape
        kh, kw = self.kernel
        K = wg.shape[1]
        rows = max(1, _BAND_BYTES // (W * kh * kw * C * self.dtype.itemsize))
        y = np.empty((N, H, W, K), dtype=self.dtype)
        for n in range(N):
            for r0 in range(0, H, rows):
                r1 = min(r0 + rows, H)
                np.matmul(self._im2col(x[n], r0, r1), wg, out=y[n, r0:r1].reshape(-1, K))
        return y

    def forward_nhwc(self, x):
        """Same-padded cross-correlation plus bias on (N, H, W, C) input."""
        _, _, _, C = _nhwc(x.shape)
        if C != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {C}")
        y = self._correlate(x, self._gemm_weights())
        y += self.bias
        return y

    def backward_nhwc(self, x, grad_out, need_grad_input=True):
        """Gradients of forward_nhwc: (grad_input or None, grad_weights, grad_bias)."""
        N, H, W, C = _nhwc(x.shape)
        K = self.out_channels
        if C != self.in_channels or grad_out.shape != (N, H, W, K):
            raise ShapeError(f"grad_out {grad_out.shape} does not match input "
                             f"{x.shape} through a {C}->{K} conv")
        kh, kw = self.kernel
        grad_w = np.zeros((kh * kw * C, K), dtype=self.dtype)
        grad_b = grad_out.sum(axis=(0, 1, 2), dtype=np.float64).astype(self.dtype)
        # whole images, not bands: grad_w's summation order ignores _BAND_BYTES
        for n in range(N):
            grad_w += self._im2col(x[n], 0, H).T @ grad_out[n].reshape(H * W, K)
        # back to canonical (out, in, kh, kw)
        grad_w = np.ascontiguousarray(
            grad_w.reshape(kh, kw, C, K).transpose(3, 2, 0, 1))
        grad_x = None
        if need_grad_input:
            flipped = self.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
            grad_x = self._correlate(grad_out, flipped.reshape(kh * kw * K, C))
        return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


class BatchNorm2d:
    """Per-channel batch normalization over (N, H, W)."""

    def __init__(self, channels, momentum=0.99, epsilon=1e-3, dtype=DEFAULT_DTYPE):
        if not 0.0 < momentum < 1.0:
            raise InvalidParameterError("momentum must be in (0, 1)")
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
        self.dtype = np.dtype(dtype)
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def _check_channels(self, x):
        if _nhwc(x.shape)[-1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[-1]}")

    def forward_train_nhwc(self, x):
        """Normalize by batch statistics; returns (y, cache), updates running stats."""
        self._check_channels(x)
        if x.shape[0] < 2:
            raise DegenerateBatchError("train-mode batchnorm needs batch size >= 2")
        cnt = x.shape[0] * x.shape[1] * x.shape[2]
        # Centre before squaring: E[x^2] - E[x]^2 cancels in float32 once the
        # channel mean is large against its spread.
        mean = (np.einsum("nhwc->c", x, dtype=np.float64) / cnt).astype(self.dtype)
        y = np.subtract(x, mean, dtype=self.dtype)
        var = np.einsum("nhwc,nhwc->c", y, y) / cnt
        inv = (1.0 / np.sqrt(var + self.epsilon)).astype(self.dtype)
        y *= self.gamma * inv
        y += self.beta
        m = self.dtype.type(self.momentum)
        self.running_mean = m * self.running_mean + (1 - m) * mean
        self.running_var = m * self.running_var + (1 - m) * var.astype(self.dtype)
        cache = (x, mean, inv)
        return y, cache

    def forward_infer_nhwc(self, x):
        """Normalize by the running statistics."""
        self._check_channels(x)
        inv = (1.0 / np.sqrt(self.running_var + self.epsilon)).astype(self.dtype)
        a = self.gamma * inv
        b = self.beta - self.running_mean * a
        y = np.multiply(x, a, dtype=self.dtype)
        y += b
        return y

    def backward_nhwc(self, cache, grad_out):
        x, mean, inv = cache
        cnt = x.shape[0] * x.shape[1] * x.shape[2]
        grad_beta = grad_out.sum(axis=(0, 1, 2), dtype=np.float64)
        s_gx = np.einsum("nhwc,nhwc->c", grad_out, x)
        grad_gamma = ((s_gx - mean * grad_beta) * inv).astype(self.dtype)
        grad_beta = grad_beta.astype(self.dtype)
        # grad_x = A*gy + B*x + C per channel, from the batch-statistics chain rule
        A = self.gamma * inv
        B = (-A * inv * grad_gamma / cnt).astype(self.dtype)
        C = (-A * grad_beta / cnt - B * mean).astype(self.dtype)
        gx = np.multiply(grad_out, A, dtype=self.dtype)
        gx += np.multiply(x, B, dtype=self.dtype)
        gx += C
        return gx, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# dense / dropout
# ---------------------------------------------------------------------------


class Dense:
    """Fully connected layer: y = x W^T + b."""

    def __init__(self, in_features, out_features, dtype=DEFAULT_DTYPE):
        self.in_features = in_features
        self.out_features = out_features
        self.dtype = np.dtype(dtype)
        self.weights = np.zeros((out_features, in_features), dtype=dtype)
        self.bias = np.zeros(out_features, dtype=dtype)

    def init_params(self, rng: RngStream):
        std = np.sqrt(2.0 / self.in_features)
        self.weights = (rng.gaussian(self.weights.size)
                        .reshape(self.weights.shape) * std).astype(self.dtype)
        self.bias = np.zeros(self.out_features, dtype=self.dtype)

    def _check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"expected (N, {self.in_features}) input, got {x.shape}")

    def forward(self, x):
        self._check_input(x)
        return x @ self.weights.T + self.bias

    def backward(self, x, grad_out):
        self._check_input(x)
        if grad_out.shape != (x.shape[0], self.out_features):
            raise ShapeError("grad_out shape does not match layer output")
        grad_w = grad_out.T @ x
        grad_b = grad_out.sum(axis=0)
        grad_x = grad_out @ self.weights
        return grad_x, grad_w, grad_b


class Dropout:
    """Inverted dropout: kept activations are scaled by 1/(1-rate)."""

    def __init__(self, rate=0.5):
        if not 0.0 <= rate < 1.0:
            raise InvalidParameterError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, mode="infer", rng: RngStream | None = None):
        """Returns (y, mask). Infer mode is the identity with mask None."""
        if mode == "infer" or self.rate == 0.0:
            return x, None
        if mode != "train":
            raise InvalidParameterError(f"unknown mode {mode!r}")
        if rng is None:
            raise InvalidParameterError("train-mode dropout needs an RngStream")
        keep = rng.uniform(x.size).reshape(x.shape) >= self.rate
        mask = keep.astype(x.dtype) / x.dtype.type(1.0 - self.rate)
        return x * mask, mask

    def backward(self, mask, grad_out):
        if mask is None:
            return grad_out
        return grad_out * mask


# ---------------------------------------------------------------------------
# stateless ops
# ---------------------------------------------------------------------------


def relu(x):
    return np.maximum(x, 0)


def relu_backward(y, grad_out):
    """Backward through relu given its output y (y > 0 iff input was > 0)."""
    return grad_out * (y > 0)


def maxpool2x2_forward_nhwc(x):
    """2x2/2 max pool on (N, H, W, C); returns (y, cache).

    y is the elementwise maximum of the four strided quarters x[:, dy::2, dx::2].
    The cache is (x, y), references only, so x must not be written to before
    the backward pass rebuilds the routing mask from them.  A window holding
    NaN pools to NaN.
    """
    N, H, W, C = _nhwc(x.shape)
    if H % 2 or W % 2:
        raise ShapeError(f"max_pool 2x2/2 needs even spatial dims, got {H}x{W}")
    y = np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2])
    np.maximum(y, x[:, 1::2, 0::2], out=y)
    np.maximum(y, x[:, 1::2, 1::2], out=y)
    return y, (x, y)


def maxpool2x2_backward_nhwc(cache, grad_out):
    """Route each window's gradient to its first maximum, in row-major order.

    cache is the second value forward returned.  Ties go to the earliest of
    (0, 0), (0, 1), (1, 0), (1, 1); the other three cells get +0.0.  A window
    whose maximum is NaN routes its gradient nowhere.
    """
    x, y = cache
    if grad_out.shape != y.shape:
        raise ShapeError(f"grad_out {grad_out.shape} does not match pooled {y.shape}")
    gx = np.empty(x.shape, dtype=grad_out.dtype)
    # Mask the bit patterns, not the floats: a negative gradient times 0.0
    # would leave -0.0 in the unrouted cells.
    bits = np.dtype(f"u{gx.itemsize}")
    g_bits, gx_bits = grad_out.view(bits), gx.view(bits)
    free = np.ones(y.shape, dtype=bool)
    hit = np.empty(y.shape, dtype=bool)
    for dy in (0, 1):
        for dx in (0, 1):
            np.equal(x[:, dy::2, dx::2], y, out=hit)
            hit &= free
            free ^= hit
            np.multiply(g_bits, hit, out=gx_bits[:, dy::2, dx::2])
    return gx


def gap_forward_nhwc(x):
    """Mean over each channel plane: (N, H, W, C) -> (N, C)."""
    _nhwc(x.shape)
    return x.mean(axis=(1, 2))


def gap_backward_nhwc(input_shape, grad_out):
    N, H, W, C = _nhwc(input_shape)
    if grad_out.shape != (N, C):
        raise ShapeError("grad_out shape does not match pooled output")
    g = (grad_out / (H * W)).astype(grad_out.dtype)
    return np.broadcast_to(g[:, None, None, :], input_shape).copy()


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y, grad_out):
    """Backward through sigmoid given its output y."""
    return grad_out * y * (1.0 - y)


def bce_loss(predictions, labels):
    """Mean binary cross-entropy and its gradient w.r.t. predictions.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs; the
    gradient is zero where the clamp was active.
    """
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"predictions {predictions.shape} vs labels {labels.shape}")
    p = np.clip(predictions, BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = labels
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))
    interior = (predictions > BCE_CLAMP) & (predictions < 1.0 - BCE_CLAMP)
    grad = np.where(interior, (p - y) / (p * (1.0 - p)), 0.0) / predictions.size
    return loss, grad.astype(predictions.dtype)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction. One step() call = one update = step_count + 1."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.first_moment = []
        self.second_moment = []

    def register(self, params):
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """Update params in place from grads (lists aligned with register())."""
        if len(params) != len(self.first_moment):
            raise ShapeError("parameter list does not match registered moments")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 / (1.0 - b1 ** t)
        c2 = 1.0 / (1.0 - b2 ** t)
        for p, g, m, v in zip(params, grads, self.first_moment, self.second_moment):
            if p.shape != g.shape:
                raise ShapeError(f"param {p.shape} vs grad {g.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p -= (self.learning_rate * (m * c1) /
                  (np.sqrt(v * c2) + self.epsilon)).astype(p.dtype)
