"""Layers, loss and optimizer for the eruption-detector CNNs.

Every forward and backward pass is hand-derived and runs on plain numpy
arrays; there is no autodiff graph.  Feature maps are channels-last
(N, H, W, C) throughout, so the im2col GEMMs and per-channel reductions hit
contiguous memory.  Composites are stored (C, H, W); a caller transposes
once, at the model input, and never again.  Weights keep their canonical
layouts: conv (out, in, kh, kw), dense (out, in).

A layer's parameter arrays are its only state.  Constructors make float32
arrays with zero weights (3x3 for a conv); whoever builds the net assigns
the weights, and another kernel or precision is an assigned array.  Each
layer reads its shapes from those arrays at use and raises ShapeError,
naming both shapes, where the input or the arrays disagree.  Conv and
batchnorm compute in the input's dtype, as relu, the pool, gap and sigmoid
do; dense follows numpy's promotion.

Convolution is stride (1, 1) with "same" zero padding and is evaluated as
one GEMM per band of output rows over an im2col (patch) matrix.  Each
patch-matrix row covers p adjacent output pixels of one image row, and its
columns are the kh x (p+kw-1) x C input window those pixels share, in
(kh, p+kw-1, c) order.  The kernel is expanded with zeros to
(kh*(p+kw-1)*C, p*K), so the GEMM writes (rows*W/p, p*K), which is the
band's own NHWC memory.  p = 1 is the plain (kh, kw, c) im2col.  With few
input channels that plain layout is slow: its patch rows are only kh*kw*C
floats long, and the GEMM writes rows only K wide.  A wider p costs
(p+kw-1)/kw times the multiply-adds per pixel, and it copies (p+kw-1)/(p*kw)
times the patch columns.

p follows the smaller of the correlation's input and output channel
counts: 4 below 8, 2 below 32, else 1, halved until it divides W
(_block_width).  Every forward of both nets writes at least as many
channels as it reads, so there the count is the input's.  Measured with
one BLAS thread on a 2-vCPU host, median ms: the forward at batch 1 (bias
add included), and grad_w at batch 4:

                     forward, p =            grad_w, p =
    in->out @ size   1     2     4     8     1      2      4      8
    3->8    @ 512   10.0   6.8   5.4   6.2   89.3   59.9   51.3   54.1
    3->16   @ 512   13.9  10.7   9.6  11.0  101.6   81.5   78.1   86.8
    8->16   @ 256    5.2   4.1   4.8   5.4   39.7   30.9   30.4   36.5
    16->32  @ 256   11.6  11.7  13.5  19.0  116.6   82.6   91.4  114.6
    32->64  @ 128    7.6   8.2  10.9  15.2   49.2   52.6   64.9   94.8
    64->128 @ 64     5.7   6.7   9.5  16.9   34.8   42.3   56.6   92.3

Every layer with 32 or more input channels keeps p = 1.  p has no knob:
it follows from the shape of the input, and for every p each forward
output is the same sum of the same products (the added terms are zeros),
so there is nothing for a caller to choose.

The backward pass reuses that path.  The gradient w.r.t. the input is the
same-padded correlation of grad_out with the kernel flipped in both spatial
axes and its in/out channels swapped; p follows the same rule.  The full
net's b1 (16 -> 32) grad-input reads 32 channels and writes 16, so it runs
at p = 2: 73.9 ms against 87.1 at p = 1 (N = 4 at 256, median of 7).  The
gradient w.r.t. the weights is grad_out as (H*W/p, p*K), transposed,
times the input's blocked patch matrix.  That product has the layout of
the expanded kernel, and it is folded as the adjoint of the expansion:
pixel q of a patch row read window columns q..q+kw-1, so the p diagonal
blocks are summed.  That changes only the summation order against p = 1.

The images of a batch are independent, so each conv pass (forward, grad_w
and grad-input) runs one task per image on a module-level thread pool, the
data parallelism of Krizhevsky 2014 (arXiv:1404.5997); NumPy releases the
GIL in the GEMMs, the patch copies and the element-wise loops.  A
correlation task runs its image's row bands in order and writes only its
y[n]; a grad_w task returns its image's product and grad_b sums, and the
caller adds both in image order.  The element-wise passes (train-mode
batchnorm, relu, the pool and their backward passes) run through one
helper, _each_band, over the _PASS_BYTES bands of the map (below): for a
map of two or more images it runs one task per worker, each over one run
of consecutive bands, and it returns each band's result in band order.  So
every output and gradient bit is that of the inline loop.  The pool has
one worker per CPU in the process's affinity mask, read at import and not
settable, and starts with the first batch of two or more images.  With one
CPU or one image, for a 2-d array, or where a pass has one band, the tasks
run inline.

In one process on a 2-vCPU host, one BLAS thread, full-net training steps
at N = 4, 512x512: the conv tasks, switched on and off on alternate steps
(median of 12 steps each), took the step from 1950 to 1476 ms, conv.fwd
365 -> 211 ms and conv.bwd 816 -> 475 ms per step.  The pass runs then
took it from 1368 to 1229 ms (median of 6 processes a side, 8 steps each),
in ms per step: bn.fwd 137 -> 111, bn.bwd 179 -> 131, relu.fwd 30 -> 22,
relu.bwd 75 -> 46, pool.fwd 41 -> 28 and pool.bwd 126 -> 101, with conv
within noise.  At batch 1 nothing is shared out.  In benchmark runs a
prototype that shared one image's conv bands made the pruned net's
on-board request slower (p10 49.8 -> 56.3 and 45.9 -> 57.3 ms) and its
peak RSS 5-10 % higher; the forward alone, in one process, gained at most
6 % (pruned 58.6 -> 54.9 ms p10).  Blocks b4-b6 are one band per image,
and split by output channels across the workers they ran no faster.

Batchnorm applies each per-channel vector, tiled W times, to the
(N*H, W*C) view of the map; the arithmetic is that of the broadcast on the
4-d map, and so are the bits.

Every per-channel sum is taken inside the tasks that read the data, one
sum per band or image, and the caller adds those sums in float64, in band
or image order.  A plain sum (batchnorm's mean and grad_beta, the conv's
grad_b) is a float64 reduction down the rows, W*C values at a time, then
over W.  A product sum (batchnorm's variance and grad_gamma) is taken in
the map's dtype while the band is in cache: one float32 sum in order over a
4x512x512 map drifted 4.8e-4 off float64, relative.

The per-element passes over full-size maps run band by band, rows that fit
_PASS_BYTES at a time, and make no full-size temporary beyond their output.
Train-mode batchnorm takes its mean in one banded pass, then centres its
input band by band; its backward pass sums grad_beta in the bands it
centres.  It scales and shifts its centred output in place; its backward
pass writes the input gradient over its centred-input buffer d as
d*B + gy*A + C (addition commutes, so the bits are those of
gy*A + d*B + C), with one band-sized temporary.  The relu and pool
backward passes build their masks one band at a time.
Median ms of 15 alternating calls at N = 4, float32, one BLAS thread,
2-vCPU host (2 MiB of L2 per core), against the whole-array passes these
replaced:

                       whole    64 KiB  256 KiB    1 MiB    4 MiB bands
    bn.fwd   16 @ 512   91.6     90.5     86.6     88.0     88.8
    bn.bwd   16 @ 512  137.7    107.0     99.3    108.2    111.7
    bn.bwd   32 @ 256   53.5     45.4     42.1     47.3     49.7
    pool.bwd 16 @ 512   89.4    103.0     74.5     80.3     86.2
    pool.bwd 32 @ 256   34.4     41.0     27.4     29.1     31.8
    relu.bwd 16 @ 512   43.2     55.3     47.4     47.6     44.7

256 KiB bands keep a pass's few band-sized operands in L2; 64 KiB bands
pay a call per row or two.  Most of the rest of the saving is the
full-size arrays no longer made, since each fresh 67 MB map faults in its
pages.  relu.bwd's time is that of its fresh output: its banded mask saves
16 MB at b0, not time.

Hyperparameters follow the conventions of the training-framework family
this detector was prototyped with.  Adam's beta1 0.9, beta2 0.999 and epsilon
1e-8 and batchnorm's momentum 0.99 and epsilon 1e-3 are class constants; Adam
lr 1e-3 and dropout rate 0.5 (inverted scaling) are constructor defaults.
Binary cross-entropy inputs are clamped to [1e-7, 1 - 1e-7].
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameterError, ShapeError
from .tensor import DEFAULT_DTYPE, RngStream

BCE_CLAMP = 1e-7
# Byte budget of one im2col band in _correlate.  A whole-image patch
# matrix per call (28 MB at 512x512x3) left a pruned-net request's peak RSS
# varying by up to 23 MB from run to run; few-MB bands keep it within 3 MB.
_BAND_BYTES = 1 << 22
# Byte budget of one band of a map in _each_band, the passes of batchnorm,
# relu and the pool; each task also takes its band's per-channel sums (the
# table and the sum rule in the module docstring).
_PASS_BYTES = 1 << 18
# CPUs this process may run on, read once at import; with one, or for a
# batch of one, the conv tasks and the pass runs run inline (the module
# docstring).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# The conv pool, started by the first batch that runs on it, so a process
# that only scores single images never imports the executor.  Built at
# import, it moved the on-board peak RSS between modes: the pruned net's
# read 74.3-79.9 MB over 20 runs, against 77.5-78.0 MB started lazily.
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool():
    """In a forked child: the parent's pool came along without its threads,
    and tasks queued on it would wait forever, so the child starts its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _nhwc(shape):
    """Return shape, the (N, H, W, C) of a feature map; ShapeError unless 4-d."""
    if len(shape) != 4:
        raise ShapeError(f"expected 4-d (N, H, W, C) input, got shape {tuple(shape)}")
    return shape


def _same_shape(name, shape, other, want):
    """ShapeError, naming both arrays and both shapes, unless shape == want."""
    if shape != want:
        raise ShapeError(f"{name} {shape} does not match {other} {want}")


def _rows(x):
    """The (N*H, W*C) view of an (N, H, W, C) map.  A per-channel vector
    tiled W times broadcasts along its rows W*C floats at a time; broadcast
    on the 4-d map, numpy's inner loop runs only C floats wide."""
    N, H, W, C = x.shape
    return x.reshape(N * H, W * C)


def _bands(n, row_bytes, budget):
    """Slices over n rows of row_bytes bytes each, as many whole rows per
    band as fit the byte budget, and at least one."""
    step = max(1, budget // max(row_bytes, 1))
    return [slice(r, min(r + step, n)) for r in range(0, n, step)]


def _block_width(channels, width):
    """Output pixels per patch-matrix row of a correlation over rows `width`
    pixels wide, where `channels` is the smaller of its input and output
    channel counts: 4 below 8, 2 below 32, else 1, halved until it divides
    the width."""
    p = 4 if channels < 8 else 2 if channels < 32 else 1
    while width % p:
        p //= 2
    return p


def _gemm_weights(w, p):
    """GEMM weights of the (out, in, kh, kw) kernel w for patch rows of p
    pixels: (kh * (p+kw-1) * in, p * out), zero where a pixel's window
    misses a column.  It is the transposed view of a contiguous
    (p, out, kh, p+kw-1, in) array, a copy that moves only `in` innermost:
    at 512->512 (p = 1) it takes 1.3 ms, where a contiguous (kh, kw, in,
    out) copy took 6.8 ms; the GEMM output is the same."""
    k_out, c_in, kh, kw = w.shape
    wide = np.zeros((p, k_out, kh, p + kw - 1, c_in), dtype=w.dtype)
    for q in range(p):
        wide[q, :, :, q:q + kw] = w.transpose(0, 2, 3, 1)
    return wide.reshape(p * k_out, -1).T


def _im2col(img, r0, r1, p, kh, kw):
    """Same-padded patch matrix of rows r0:r1 of one (H, W, C) image for a
    kh x kw kernel, with p output pixels per row: ((r1-r0)*W/p,
    kh*(p+kw-1)*C), row (r, j) holding the window of pixels
    (r, j*p .. j*p+p-1), columns in (kh, p+kw-1, c) order."""
    ph, pw = kh // 2, kw // 2
    H, W, C = img.shape
    lo, hi = max(r0 - ph, 0), min(r1 + ph, H)
    band = np.pad(img[lo:hi], ((lo - r0 + ph, r1 + ph - hi), (pw, pw), (0, 0)))
    # (r1-r0, W/p, C, kh, p+kw-1)
    win = sliding_window_view(band, (kh, p + kw - 1), axis=(0, 1))[:, ::p]
    return win.transpose(0, 1, 3, 4, 2).reshape((r1 - r0) * (W // p), -1)


def _spread(task, items):
    """task(item) for each item, as an iterator over the results in order:
    one task per item on _POOL, or inline, as the iterator is read, with one
    CPU or one item.  A pool task runs in a copy of the caller's context, so
    it keeps the caller's numpy error state (np.errstate).  A task's
    exception is raised when its result is reached."""
    global _POOL
    if _WORKERS < 2 or len(items) < 2:
        return map(task, items)
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_WORKERS, "volcnn-conv")
    contexts = [contextvars.copy_context() for _ in items]
    return _POOL.map(lambda ctx, item: ctx.run(task, item), contexts, items)


def _each_band(task, x, n, row_bytes):
    """task(b) for each _PASS_BYTES band b over n rows of row_bytes bytes
    each, as a list of the results in band order.  If x is a map of two or
    more images, the bands are cut into one run of consecutive bands per
    worker, as even as the bands allow, and the runs go to _spread; else
    they run inline."""
    bands = _bands(n, row_bytes, _PASS_BYTES)
    k = min(_WORKERS if x.ndim == 4 and len(x) > 1 else 1, len(bands))
    runs = [bands[i * len(bands) // k:(i + 1) * len(bands) // k] for i in range(k)]
    return [r for run in _spread(lambda run: [task(b) for b in run], runs) for r in run]


def _channel_sums(rows, C):
    """Per-channel float64 sums of a (rows, W*C) band or image: down the
    rows, W*C values at a time, then over W."""
    return np.add.reduce(rows, axis=0, dtype=np.float64).reshape(-1, C).sum(axis=0)


def _correlate(x, w, bias=None):
    """Same-padded correlation of (N, H, W, C) x with the (K, C, kh, kw)
    kernel w, plus bias if given, in x's dtype; one GEMM per band of output
    rows whose patch matrix fits _BAND_BYTES.  The GEMM writes
    (rows*W/p, p*K), which is the band's own NHWC memory.  One task per
    image runs that image's bands in order and writes only y[n]."""
    N, H, W, C = x.shape
    K, _, kh, kw = w.shape
    p = _block_width(min(C, K), W)
    wg = _gemm_weights(w, p)
    bands = _bands(H, W // p * wg.shape[0] * x.dtype.itemsize, _BAND_BYTES)
    tiled_bias = None if bias is None else np.tile(bias, W)
    y = np.empty((N, H, W, K), dtype=x.dtype)

    def image(n):
        for b in bands:
            out = y[n, b].reshape(-1, W * K)
            np.matmul(_im2col(x[n], b.start, b.stop, p, kh, kw), wg,
                      out=out.reshape(-1, p * K))
            if tiled_bias is not None:
                out += tiled_bias

    for _ in _spread(image, range(N)):
        pass
    return y


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


class Conv2d:
    """Convolution, stride (1, 1), "same" zero padding.

    Its state is weights (out, in, kh, kw), with odd kh and kw, and bias
    (out,); it computes in the input's dtype.
    """

    def __init__(self, in_channels, out_channels):
        self.weights = np.zeros((out_channels, in_channels, 3, 3), dtype=DEFAULT_DTYPE)
        self.bias = np.zeros(out_channels, dtype=DEFAULT_DTYPE)

    def _check(self, x):
        """(N, H, W, C) of x; ShapeError unless x, weights and bias fit one conv."""
        shape = _nhwc(x.shape)
        w, b = self.weights.shape, self.bias.shape
        if (len(w) != 4 or not w[2] % 2 == w[3] % 2 == 1 or b != w[:1]
                or shape[3] != w[1]):
            raise ShapeError(f"input {x.shape} does not fit weights {w} "
                             f"(odd kh, kw) and bias {b}")
        return shape

    def forward_nhwc(self, x):
        """Same-padded cross-correlation plus bias on (N, H, W, C) input."""
        self._check(x)
        return _correlate(x, self.weights, self.bias)

    def backward_nhwc(self, x, grad_out, need_grad_input=True):
        """Gradients of forward_nhwc: (grad_input or None, grad_weights, grad_bias)."""
        N, H, W, C = self._check(x)
        K, _, kh, kw = self.weights.shape
        _same_shape("grad_out", grad_out.shape, "output", (N, H, W, K))
        p = _block_width(C, W)
        g = np.zeros((p * K, kh * (p + kw - 1) * C), dtype=x.dtype)

        def image(n):
            patches = _im2col(x[n], 0, H, p, kh, kw)
            gy = grad_out[n].reshape(H, W * K)
            return gy.reshape(H * W // p, p * K).T @ patches, _channel_sums(gy, K)

        # whole images, not bands: grad_w's summation order ignores
        # _BAND_BYTES; the images' products and grad_b sums are added in
        # image order, so it ignores which thread made each one too
        sums = np.zeros(K)
        for part, image_sums in _spread(image, range(N)):
            g += part
            sums += image_sums
        grad_b = sums.astype(x.dtype)
        # g is laid out as _gemm_weights' (p, out, kh, p+kw-1, in): sum the
        # p diagonal blocks over the slices it writes them to
        g = g.reshape(p, K, kh, p + kw - 1, C)
        taps = g[0, :, :, :kw]
        for q in range(1, p):
            taps = taps + g[q, :, :, q:q + kw]
        grad_w = np.ascontiguousarray(taps.transpose(0, 3, 1, 2))
        grad_x = None
        if need_grad_input:
            flipped = self.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            grad_x = _correlate(grad_out, flipped)
        return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


class BatchNorm2d:
    """Per-channel batch normalization over (N, H, W).

    Its state is gamma, beta, running_mean and running_var, each (C,); it
    computes in the input's dtype.
    """

    momentum = 0.99
    epsilon = 1e-3

    def __init__(self, channels):
        self.gamma = np.ones(channels, dtype=DEFAULT_DTYPE)
        self.beta = np.zeros(channels, dtype=DEFAULT_DTYPE)
        self.running_mean = np.zeros(channels, dtype=DEFAULT_DTYPE)
        self.running_var = np.ones(channels, dtype=DEFAULT_DTYPE)

    def _check(self, x):
        """ShapeError unless x's channels, beta and the running stats fit gamma."""
        c = self.gamma.shape
        stats = (self.beta, self.running_mean, self.running_var)
        if _nhwc(x.shape)[3:] != c or any(a.shape != c for a in stats):
            raise ShapeError(f"input {x.shape} does not fit gamma {c}, beta, running "
                             f"mean and var {tuple(a.shape for a in stats)}")

    def forward_train_nhwc(self, x):
        """Normalize by batch statistics; returns (y, cache), updates running stats."""
        self._check(x)
        N, H, W, C = x.shape
        if N < 2:
            raise ShapeError(f"train-mode batchnorm needs batch size >= 2, "
                             f"got input {x.shape}")
        cnt, n, row_bytes = N * H * W, N * H, W * C * x.itemsize
        xr, rows = _rows(x), np.empty((n, W * C), dtype=x.dtype)
        # Centre before squaring: E[x^2] - E[x]^2 cancels in float32 once the
        # channel mean is large against its spread.
        sums = _each_band(lambda b: _channel_sums(xr[b], C), x, n, row_bytes)
        mean = (sum(sums, np.zeros(C)) / cnt).astype(x.dtype)
        tiled = np.tile(mean, W)

        def centre(b):
            d = np.subtract(xr[b], tiled, out=rows[b]).reshape(-1, C)
            return np.einsum("ic,ic->c", d, d)

        var = sum(_each_band(centre, x, n, row_bytes), np.zeros(C)) / cnt
        y = rows.reshape(x.shape)
        inv = (1.0 / np.sqrt(var + self.epsilon)).astype(x.dtype)
        scale, shift = np.tile(self.gamma * inv, W), np.tile(self.beta, W)

        def scale_and_shift(b):
            band = rows[b]
            band *= scale
            band += shift

        _each_band(scale_and_shift, x, n, row_bytes)
        m = x.dtype.type(self.momentum)
        self.running_mean = m * self.running_mean + (1 - m) * mean
        self.running_var = m * self.running_var + (1 - m) * var.astype(x.dtype)
        cache = (x, mean, inv)
        return y, cache

    def forward_infer_nhwc(self, x):
        """Normalize by the running statistics."""
        self._check(x)
        W = x.shape[2]
        inv = (1.0 / np.sqrt(self.running_var + self.epsilon)).astype(x.dtype)
        a = self.gamma * inv
        b = self.beta - self.running_mean * a
        y = np.multiply(_rows(x), np.tile(a, W), dtype=x.dtype)
        y += np.tile(b, W)
        return y.reshape(x.shape)

    def backward_nhwc(self, cache, grad_out):
        x, mean, inv = cache
        _same_shape("grad_out", grad_out.shape, "input", x.shape)
        N, H, W, _ = x.shape
        k = mean.size
        cnt, n, row_bytes = N * H * W, N * H, W * k * x.itemsize
        # Centre first: sum(gy * x) - mean * sum(gy) cancels in float32 once
        # the channel mean is large against its spread.
        xr, gy, d = _rows(x), _rows(grad_out), np.empty((n, W * k), dtype=x.dtype)
        tiled = np.tile(mean, W)

        def centre(b):
            band = np.subtract(xr[b], tiled, out=d[b]).reshape(-1, k)
            return np.einsum("ic,ic->c", gy[b].reshape(-1, k), band), _channel_sums(gy[b], k)

        dots, sums = zip(*_each_band(centre, x, n, row_bytes))
        grad_gamma = (sum(dots, np.zeros(k)) * inv).astype(x.dtype)
        grad_beta = sum(sums, np.zeros(k)).astype(x.dtype)
        # grad_x = B*(x - mean) + A*gy + C per channel, from the batch-statistics
        # chain rule, written over d band by band
        A = self.gamma * inv
        B = (-A * inv * grad_gamma / cnt).astype(x.dtype)
        C = (-A * grad_beta / cnt).astype(x.dtype)
        A, B, C = np.tile(A, W), np.tile(B, W), np.tile(C, W)

        def grad_input(b):
            band = d[b]
            band *= B
            band += np.multiply(gy[b], A, dtype=x.dtype)
            band += C

        _each_band(grad_input, x, n, row_bytes)
        return d.reshape(x.shape), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# dense / dropout
# ---------------------------------------------------------------------------


class Dense:
    """Fully connected layer: y = x W^T + b.

    Its state is weights (out, in) and bias (out,); numpy promotes x with them.
    """

    def __init__(self, in_features, out_features):
        self.weights = np.zeros((out_features, in_features), dtype=DEFAULT_DTYPE)
        self.bias = np.zeros(out_features, dtype=DEFAULT_DTYPE)

    def _check_input(self, x):
        w, b = self.weights.shape, self.bias.shape
        if x.ndim != 2 or len(w) != 2 or x.shape[1] != w[1] or b != w[:1]:
            raise ShapeError(f"input {x.shape} does not fit weights {w} and bias {b}")

    def forward(self, x):
        self._check_input(x)
        return x @ self.weights.T + self.bias

    def backward(self, x, grad_out):
        self._check_input(x)
        _same_shape("grad_out", grad_out.shape, "output",
                    (x.shape[0], self.weights.shape[0]))
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
        _same_shape("grad_out", grad_out.shape, "mask", mask.shape)
        return grad_out * mask


# ---------------------------------------------------------------------------
# stateless ops
# ---------------------------------------------------------------------------


def relu(x):
    """max(x, 0), band by band (_each_band)."""
    y = np.empty(x.shape, dtype=x.dtype)
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)
    _each_band(lambda b: np.maximum(flat_x[b], 0, out=flat_y[b]), x, x.size, x.itemsize)
    return y


def relu_backward(y, grad_out):
    """Backward through relu given its output y (y > 0 iff input was > 0)."""
    _same_shape("grad_out", grad_out.shape, "output", y.shape)
    out = np.empty(y.shape, dtype=grad_out.dtype)
    flat_y, flat_g, flat_out = y.reshape(-1), grad_out.reshape(-1), out.reshape(-1)
    _each_band(lambda b: np.multiply(flat_g[b], flat_y[b] > 0, out=flat_out[b]),
               y, y.size, y.itemsize)
    return out


def maxpool2x2_forward_nhwc(x):
    """2x2/2 max pool on (N, H, W, C); returns (y, cache).

    y is the elementwise maximum of the four strided quarters x[:, dy::2, dx::2].
    The cache is (x, y), references only, so x must not be written to before
    the backward pass rebuilds the routing mask from them.  A window holding
    NaN pools to NaN.  The map is pooled in bands of pooled rows (_each_band).
    """
    N, H, W, C = _nhwc(x.shape)
    if H % 2 or W % 2:
        raise ShapeError(f"max_pool 2x2/2 needs even spatial dims, got {H}x{W}")
    y = np.empty((N, H // 2, W // 2, C), dtype=x.dtype)
    # pooled row i reads window rows (i, dy, :, dx) of this view
    x_win, y_rows = x.reshape(N * H // 2, 2, W // 2, 2, C), y.reshape(N * H // 2, W // 2, C)

    def band(b):
        out = y_rows[b]
        np.maximum(x_win[b, 0, :, 0], x_win[b, 0, :, 1], out=out)
        np.maximum(out, x_win[b, 1, :, 0], out=out)
        np.maximum(out, x_win[b, 1, :, 1], out=out)

    _each_band(band, x, N * H // 2, 2 * W * C * x.itemsize)
    return y, (x, y)


def maxpool2x2_backward_nhwc(cache, grad_out):
    """Route each window's gradient to its first maximum, in row-major order.

    cache is the second value forward returned.  Ties go to the earliest of
    (0, 0), (0, 1), (1, 0), (1, 1); the other three cells get +0.0.  A window
    whose maximum is NaN routes its gradient nowhere.
    """
    x, y = cache
    _same_shape("grad_out", grad_out.shape, "pooled output", y.shape)
    N, H, W, C = x.shape
    gx = np.empty(x.shape, dtype=grad_out.dtype)
    # Mask the bit patterns, not the floats: a negative gradient times 0.0
    # would leave -0.0 in the unrouted cells.
    bits = np.dtype(f"u{gx.itemsize}")
    # pooled row i reads window rows (i, dy, :, dx) of these views
    pooled = (N * H // 2, W // 2, C)
    windows = (N * H // 2, 2, W // 2, 2, C)
    x_win, gx_win = x.reshape(windows), gx.view(bits).reshape(windows)
    y_rows, g_rows = y.reshape(pooled), grad_out.view(bits).reshape(pooled)

    def band(b):
        free = np.ones(y_rows[b].shape, dtype=bool)
        hit = np.empty_like(free)
        for dy in (0, 1):
            for dx in (0, 1):
                np.equal(x_win[b, dy, :, dx], y_rows[b], out=hit)
                hit &= free
                free ^= hit
                np.multiply(g_rows[b], hit, out=gx_win[b, dy, :, dx])

    _each_band(band, x, pooled[0], 2 * W * C * x.itemsize)
    return gx


def gap_forward_nhwc(x):
    """Mean over each channel plane: (N, H, W, C) -> (N, C)."""
    _nhwc(x.shape)
    return x.mean(axis=(1, 2))


def gap_backward_nhwc(input_shape, grad_out):
    N, H, W, C = _nhwc(input_shape)
    _same_shape("grad_out", grad_out.shape, "pooled output", (N, C))
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
    _same_shape("grad_out", grad_out.shape, "output", y.shape)
    return grad_out * y * (1.0 - y)


def bce_loss(predictions, labels):
    """Mean binary cross-entropy and its gradient w.r.t. predictions.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs; the
    gradient is zero where the clamp was active.
    """
    _same_shape("predictions", predictions.shape, "labels", labels.shape)
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

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = []
        self.second_moment = []

    def register(self, params):
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """Update params in place from grads (lists aligned with register()).

        Each update runs through two scratch arrays in the moments' dtype,
        in the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2,
        p -= lr*(m*c1) / (sqrt(v*c2) + eps).
        """
        if not len(params) == len(grads) == len(self.first_moment):
            raise ShapeError(f"{len(params)} params and {len(grads)} grads for "
                             f"{len(self.first_moment)} registered moments")
        # every shape before any update, so a mismatch leaves all state as it was
        for p, g, m, v in zip(params, grads, self.first_moment, self.second_moment):
            for name, a in (("param", p), ("first moment", m), ("second moment", v)):
                _same_shape("grad", g.shape, name, a.shape)
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 / (1.0 - b1 ** t)
        c2 = 1.0 / (1.0 - b2 ** t)
        for p, g, m, v in zip(params, grads, self.first_moment, self.second_moment):
            num, den = np.empty_like(m), np.empty_like(m)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=num)
            v *= b2
            np.square(g, out=num)
            num *= 1.0 - b2
            v += num
            np.multiply(m, c1, out=num)
            num *= self.learning_rate
            np.multiply(v, c2, out=den)
            np.sqrt(den, out=den)
            den += self.epsilon
            num /= den
            p -= num
