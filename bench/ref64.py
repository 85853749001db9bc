"""Float64 reference for what the benchmark checks, written in NumPy alone.

It does not import ``volcnn``; it takes raw planes, the sensor's affine
and the nets' parameters as plain arrays (``harness.Net.export``) and
recomputes the composite and the score independently: direct tap loops
for the resize, nine shifted GEMMs for each conv, and two-pass batch
statistics.
"""

from __future__ import annotations

import numpy as np

ALPHA = 2.5
SWIR_FLOOR = 0.1
CUBIC_A = -0.75
BCE_CLAMP = 1e-7


def _keys(t):
    t = np.abs(t)
    a = CUBIC_A
    near = (a + 2) * t ** 3 - (a + 3) * t ** 2 + 1
    far = a * (t ** 3 - 5 * t ** 2 + 8 * t - 4)
    return np.where(t <= 1, near, np.where(t < 2, far, 0.0))


def _resize_axis(img, axis, dst):
    """Keys cubic resample along one axis; edge taps clamp to the border."""
    src = img.shape[axis]
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    base = np.floor(pos).astype(np.int64)
    out = 0.0
    for off in (-1, 0, 1, 2):
        taps = np.take(img, np.clip(base + off, 0, src - 1), axis=axis)
        w = _keys(pos - (base + off))
        shape = [1] * img.ndim
        shape[axis] = dst
        out = out + taps * w.reshape(shape)
    return out


def composite64(planes, scale, offset, size=512):
    """Raw (5, H, W) planes in band order blue..swir2 -> (3, size, size)."""
    refl = np.clip(planes.astype(np.float64) * scale[:, None, None]
                   + offset[:, None, None], 0.0, 1.0)
    blue, green, red, swir1, swir2 = refl
    rgb = np.stack([ALPHA * red + np.maximum(0.0, swir2 - SWIR_FLOOR),
                    ALPHA * green + np.maximum(0.0, swir1 - SWIR_FLOOR),
                    ALPHA * blue])
    rgb = np.clip(rgb, 0.0, 1.0)
    return np.clip(_resize_axis(_resize_axis(rgb, 1, size), 2, size), 0.0, 1.0)


def conv64(x, w, b):
    """Same-padded 3x3 cross-correlation: NHWC x, (K, C, 3, 3) w."""
    n, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    y = np.zeros((n, h, wd, w.shape[0]))
    for dy in range(3):
        for dx in range(3):
            y += np.tensordot(xp[:, dy:dy + h, dx:dx + wd], w[:, :, dy, dx],
                              axes=([3], [1]))
    y += b
    return y


def forward64(params, x, train=False, mask=None):
    """NHWC input -> (scores, logits), both (N, 1) float64.

    Train mode normalises by batch statistics and multiplies the head by
    the given dropout mask (the dropout draw is an input, not a result);
    infer mode uses the running statistics and no dropout.
    """
    x = np.asarray(x, dtype=np.float64)
    for blk in params["blocks"]:
        y = conv64(x, blk["w"], blk["b"])
        n, h, w, c = y.shape
        # in place: at 512x512, N=4 one float64 map is 134 MB
        if train:
            y -= y.mean(axis=(0, 1, 2))
            var = np.einsum("nhwc,nhwc->c", y, y) / (n * h * w)
        else:
            y -= blk["mean"]
            var = blk["var"]
        y *= blk["gamma"] / np.sqrt(var + blk["eps"])
        y += blk["beta"]
        np.maximum(y, 0.0, out=y)
        x = y.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))
    (w0, b0), (w1, b1) = params["dense"]
    a = np.maximum(x.mean(axis=(1, 2)) @ w0.T + b0, 0.0)
    if train:
        a = a * mask
    z = a @ w1.T + b1
    return 1.0 / (1.0 + np.exp(-z)), z


def bce64(scores, labels):
    p = np.clip(scores, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(np.mean(-(labels * np.log(p) + (1 - labels) * np.log1p(-p))))
