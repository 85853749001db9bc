import os
import signal
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volcnn import nn
from volcnn.errors import InvalidParameterError, ShapeError
from volcnn.tensor import RngStream

from oracles import (adam_scalar_reference, batchnorm_train_backward_reference,
                     batchnorm_train_reference, conv2d_backward_reference,
                     conv2d_reference, max_rel_err, maxpool2x2_reference, to_nchw,
                     to_nhwc)


class TestConv2d:
    def test_identity_scale_kernel(self):
        layer = nn.Conv2d(1, 1)
        layer.weights = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        x = np.ones((1, 3, 3, 1), dtype=np.float32)
        y = layer.forward_nhwc(x)
        np.testing.assert_allclose(y, 2.0)

    def test_same_padding_shape_512(self):
        layer = nn.Conv2d(3, 16)
        x = np.zeros((1, 512, 512, 3), dtype=np.float32)
        assert layer.forward_nhwc(x).shape == (1, 512, 512, 16)

    def test_matches_bruteforce_oracle(self):
        layer = nn.Conv2d(2, 3)
        layer.weights = _gauss32(101, 3, 2, 3, 3)
        layer.bias = _gauss32(102, 3)
        x = _gauss32(103, 1, 2, 5, 5)
        got = to_nchw(layer.forward_nhwc(to_nhwc(x)))
        want = conv2d_reference(x, layer.weights, layer.bias)
        assert max_rel_err(got, want) < 1e-5

    def test_non_4d_input_rejected(self):
        layer = nn.Conv2d(2, 3)
        with pytest.raises(ShapeError, match="4-d"):
            layer.forward_nhwc(np.zeros((5, 5, 2), dtype=np.float32))

    def test_backward_non_4d_input_rejected(self):
        layer = nn.Conv2d(2, 3)
        with pytest.raises(ShapeError, match="4-d"):
            layer.backward_nhwc(np.zeros((6, 6, 2), dtype=np.float32),
                                np.zeros((6, 6, 3), dtype=np.float32))

    def test_forward_deterministic(self):
        layer = nn.Conv2d(2, 4)
        layer.weights = _gauss32(3, 4, 2, 3, 3)
        x = to_nhwc(_gauss32(4, 2, 2, 6, 6))
        np.testing.assert_array_equal(layer.forward_nhwc(x), layer.forward_nhwc(x))

    def test_backward_zero_cotangent(self):
        layer = nn.Conv2d(2, 3)
        layer.weights = _gauss32(5, 3, 2, 3, 3)
        x = to_nhwc(_gauss32(6, 1, 2, 6, 6))
        gx, gw, gb = layer.backward_nhwc(x, np.zeros((1, 6, 6, 3), dtype=np.float32))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_grad_bias_is_channel_sum(self):
        layer = nn.Conv2d(2, 3)
        layer.weights = _gauss32(7, 3, 2, 3, 3).astype(np.float64)
        layer.bias = np.zeros(3)
        x = to_nhwc(_gauss32(8, 2, 2, 4, 4).astype(np.float64))
        gy = to_nhwc(_gauss32(9, 2, 3, 4, 4).astype(np.float64))
        _, _, gb = layer.backward_nhwc(x, gy)
        np.testing.assert_allclose(gb, gy.sum(axis=(0, 1, 2)), rtol=1e-12)

    def test_grad_bias_matches_float64_on_a_full_size_map(self):
        # b0's backward in training, on a float32 gradient spanning six
        # decades with both signs, where a float32 sum cancels
        gen = np.random.default_rng(1)
        shape = (4, 512, 512, 16)
        gy = np.power(np.float32(10), 6 * gen.random(shape, dtype=np.float32) - 3)
        np.negative(gy, out=gy, where=gen.random(shape, dtype=np.float32) < 0.5)
        layer = nn.Conv2d(3, 16)
        x = np.zeros((*shape[:3], 3), dtype=np.float32)
        _, _, gb = layer.backward_nhwc(x, gy, need_grad_input=False)
        _assert_float64_sum(gb, gy.sum(axis=(0, 1, 2), dtype=np.float64))


class TestBatchNorm2d:
    def test_infer_identity_normalization(self):
        layer = nn.BatchNorm2d(3)
        x = to_nhwc(_gauss32(1, 2, 3, 4, 4))
        y = layer.forward_infer_nhwc(x.copy())
        np.testing.assert_allclose(y, x / np.sqrt(1.0 + layer.epsilon), rtol=1e-6)
        assert np.max(np.abs(y - x)) < 0.02 * np.max(np.abs(x)) + 1e-3

    def test_train_normalizes_batch(self):
        layer = nn.BatchNorm2d(5)
        x = to_nhwc(3.0 * _gauss32(2, 8, 5, 6, 6))
        y, _ = layer.forward_train_nhwc(x)
        mean = y.mean(axis=(0, 1, 2))
        var = y.var(axis=(0, 1, 2))
        assert np.max(np.abs(mean)) < 1e-5
        assert np.max(np.abs(var - 1.0)) < 1e-3

    def test_affine_applies_after_normalization(self):
        layer = nn.BatchNorm2d(2)
        layer.gamma[:] = 2.0
        layer.beta[:] = 3.0
        x = to_nhwc(3.0 * _gauss32(3, 4, 2, 4, 4))
        y, _ = layer.forward_train_nhwc(x.copy())
        ref = nn.BatchNorm2d(2)
        xhat, _ = ref.forward_train_nhwc(x)
        np.testing.assert_allclose(y, 2.0 * xhat + 3.0, rtol=1e-5, atol=1e-5)

    def test_train_large_offset_matches_float64_reference(self):
        # mean 100, std 0.05: E[x^2] - E[x]^2 cancels in float32 here
        layer = nn.BatchNorm2d(3)
        layer.gamma = np.array([1.0, 2.0, 0.5], dtype=np.float32)
        layer.beta = np.array([0.0, 3.0, -1.0], dtype=np.float32)
        x = 100.0 + 0.05 * _gauss32(31, 4, 3, 16, 16)
        y, _ = layer.forward_train_nhwc(to_nhwc(x))
        want = batchnorm_train_reference(x, layer.gamma, layer.beta, layer.epsilon)
        np.testing.assert_allclose(to_nchw(y), want, rtol=0, atol=1e-3)

    def test_train_backward_large_offset_matches_float64_reference(self):
        # mean 100, std 0.05: sum(gy * x) - mean * sum(gy) cancels in float32
        layer = nn.BatchNorm2d(3)
        layer.gamma = np.array([1.0, 2.0, 0.5], dtype=np.float32)
        x = 100.0 + 0.05 * _gauss32(32, 4, 3, 32, 32)
        gy = _gauss32(33, 4, 3, 32, 32)
        _, cache = layer.forward_train_nhwc(to_nhwc(x))
        gx, g_gamma, g_beta = layer.backward_nhwc(cache, to_nhwc(gy))
        want = batchnorm_train_backward_reference(x, layer.gamma, layer.epsilon, gy)
        # each gradient within 2e-4 of its largest magnitude; grad_gamma reads
        # 8e-5 here, and 1.4e-3 when formed from the uncentred x
        for got, ref in zip((to_nchw(gx), g_gamma, g_beta), want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=2e-4 * np.abs(ref).max())

    def test_train_non_4d_input_rejected(self):
        with pytest.raises(ShapeError, match="4-d"):
            nn.BatchNorm2d(2).forward_train_nhwc(np.zeros((4, 4, 2), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4, 2)])
    def test_infer_non_4d_input_rejected(self, shape):
        with pytest.raises(ShapeError, match="4-d"):
            nn.BatchNorm2d(2).forward_infer_nhwc(np.zeros(shape, dtype=np.float32))

    def test_batch_of_one_rejected(self):
        layer = nn.BatchNorm2d(2)
        with pytest.raises(ShapeError, match=r"batch size >= 2, got input \(1, 4, 4, 2\)"):
            layer.forward_train_nhwc(np.zeros((1, 4, 4, 2), dtype=np.float32))

    def test_running_stats_move_toward_batch(self):
        layer = nn.BatchNorm2d(1)
        x = np.full((4, 2, 2, 1), 10.0, dtype=np.float32)
        layer.forward_train_nhwc(x)
        assert layer.running_mean[0] == pytest.approx(0.99 * 0.0 + 0.01 * 10.0)

    def test_backward_zero_cotangent(self):
        layer = nn.BatchNorm2d(3)
        x = to_nhwc(_gauss32(4, 4, 3, 4, 4))
        _, cache = layer.forward_train_nhwc(x)
        gx, gg, gb = layer.backward_nhwc(cache, np.zeros((4, 4, 4, 3), dtype=np.float32))
        assert not gx.any() and not gg.any() and not gb.any()

    def test_grad_beta_is_channel_sum(self):
        layer = nn.BatchNorm2d(3)
        layer.gamma, layer.beta = np.ones(3), np.zeros(3)
        x = to_nhwc(_gauss32(5, 4, 3, 4, 4).astype(np.float64))
        _, cache = layer.forward_train_nhwc(x)
        gy = to_nhwc(_gauss32(6, 4, 3, 4, 4).astype(np.float64))
        _, _, gb = layer.backward_nhwc(cache, gy)
        np.testing.assert_allclose(gb, gy.sum(axis=(0, 1, 2)), rtol=1e-12)

    def test_train_statistics_match_float64_on_a_full_size_map(self):
        # b0's shape in training: a float32 sum in order over the 1M values
        # of a channel read the variance 4.8e-4 and grad_gamma 2.2e-4 off
        # float64, relative; the mean and grad_beta are summed in float64
        gen = np.random.default_rng(0)
        shape = (4, 512, 512, 16)
        x = 0.3 + 0.5 * gen.standard_normal(shape, dtype=np.float32)
        gy = gen.standard_normal(shape, dtype=np.float32)
        layer = nn.BatchNorm2d(16)
        eps = layer.epsilon
        # every expected value first: the forward pass writes y over x
        cnt = x.size // 16
        mean = np.einsum("nhwc->c", x, dtype=np.float64) / cnt
        var = np.einsum("nhwc,nhwc->c", x, x, dtype=np.float64) / cnt - mean ** 2
        want = ((np.einsum("nhwc,nhwc->c", gy, x, dtype=np.float64)
                 - mean * np.einsum("nhwc->c", gy, dtype=np.float64)) / np.sqrt(var + eps))
        # the cached map is x less the float64 mean, rounded once to float32
        want_centred = x - mean.astype(np.float32)
        _, cache = layer.forward_train_nhwc(x)
        centred, inv = cache
        np.testing.assert_array_equal(centred.view(np.uint32), want_centred.view(np.uint32))
        _, g_gamma, g_beta = layer.backward_nhwc(cache, gy)
        _assert_float64_sum(g_beta, np.einsum("nhwc->c", gy, dtype=np.float64))
        var_got = 1.0 / np.square(inv.astype(np.float64)) - eps
        assert np.abs(var_got - var).max() / var.max() <= 1e-6
        assert np.abs(g_gamma - want).max() / np.abs(want).max() <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 3, 1, 4), (2, 3, 5, 1), (3, 4, 6, 5)],
                             ids=["W=1", "C=1", "W=6,C=5"])
    def test_tiled_ops_match_broadcast_formula_bitwise(self, shape):
        # The layer applies each per-channel vector tiled W times to the
        # (N*H, W*C) view.  The same arithmetic broadcast on the 4-d map must
        # give the same bits in every output.
        N, H, W, C = shape
        cnt = N * H * W
        layer = nn.BatchNorm2d(C)
        layer.gamma = 1.0 + 0.5 * _gauss32(60, C)
        layer.beta = _gauss32(61, C)
        layer.running_mean = _gauss32(62, C)
        layer.running_var = 0.5 + np.square(_gauss32(63, C))
        x = 2.0 + 3.0 * _gauss32(64, *shape)
        gy = _gauss32(65, *shape)
        eps = layer.epsilon

        inv = (1.0 / np.sqrt(layer.running_var + eps)).astype(np.float32)
        a = layer.gamma * inv
        want = [x * a + (layer.beta - layer.running_mean * a)]
        got = [layer.forward_infer_nhwc(x.copy())]

        mean = (np.einsum("nhwc->c", x, dtype=np.float64) / cnt).astype(np.float32)
        d = x - mean
        inv = (1.0 / np.sqrt(_band_sums(d, d) / cnt + eps)).astype(np.float32)
        want.append(d * (layer.gamma * inv) + layer.beta)
        y, cache = layer.forward_train_nhwc(x)
        got.append(y)

        g_gamma = (_band_sums(gy, d) * inv).astype(np.float32)
        g_beta = np.einsum("nhwc->c", gy, dtype=np.float64).astype(np.float32)
        A = layer.gamma * inv
        B = (-A * inv * g_gamma / cnt).astype(np.float32)
        Cc = (-A * g_beta / cnt).astype(np.float32)
        want += [gy * A + d * B + Cc, g_gamma, g_beta]
        got += layer.backward_nhwc(cache, gy)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and g.shape == w.shape
            np.testing.assert_array_equal(g.view(np.uint32), w.view(np.uint32))


class TestStatelessOps:
    def test_relu(self):
        np.testing.assert_array_equal(
            nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_max_pool_ramp(self):
        # hand evaluation of 2x2/2 max over [[1..4],[5..8],[9..12],[13..16]]
        x = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4, 1)
        y, _ = nn.maxpool2x2_forward_nhwc(x)
        np.testing.assert_array_equal(y[0, :, :, 0], [[6, 8], [14, 16]])

    def test_max_pool_halves_dims(self):
        x = np.zeros((2, 8, 6, 3), dtype=np.float32)
        assert nn.maxpool2x2_forward_nhwc(x)[0].shape == (2, 4, 3, 3)

    def test_max_pool_odd_dim_rejected(self):
        with pytest.raises(ShapeError, match="even spatial dims, got 5x4"):
            nn.maxpool2x2_forward_nhwc(np.zeros((1, 5, 4, 1), dtype=np.float32))

    def test_max_pool_non_4d_rejected(self):
        with pytest.raises(ShapeError, match="4-d"):
            nn.maxpool2x2_forward_nhwc(np.zeros((4, 4, 3), dtype=np.float32))

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4, 1)
        gy = np.ones((1, 2, 2, 1), dtype=np.float32)
        _, idx = nn.maxpool2x2_forward_nhwc(x)
        gx = nn.maxpool2x2_backward_nhwc(idx, gy)
        want = np.zeros((4, 4), dtype=np.float32)
        want[1, 1] = want[1, 3] = want[3, 1] = want[3, 3] = 1.0
        np.testing.assert_array_equal(gx[0, :, :, 0], want)

    def test_global_avg_pool_shape_and_constant(self):
        x = np.full((1, 4, 4, 512), 0.25, dtype=np.float32)
        y = nn.gap_forward_nhwc(x)
        assert y.shape == (1, 512)
        np.testing.assert_allclose(y, 0.25)

    def test_global_avg_pool_non_4d_rejected(self):
        with pytest.raises(ShapeError, match="4-d"):
            nn.gap_forward_nhwc(np.zeros((4, 4, 3), dtype=np.float32))

    def test_global_avg_pool_backward_non_4d_shape_rejected(self):
        with pytest.raises(ShapeError, match="4-d"):
            nn.gap_backward_nhwc((4, 4, 3), np.zeros((4, 3), dtype=np.float32))

    def test_sigmoid_zero(self):
        assert nn.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_range_extremes(self):
        y = nn.sigmoid(np.array([-100.0, 100.0]))
        assert 0.0 <= y[0] < 1e-6 and 1.0 - 1e-6 < y[1] <= 1.0


def _f32(*shape):
    return np.zeros(shape, dtype=np.float32)


def _conv_backward(gy):
    return nn.Conv2d(2, 3).backward_nhwc(_f32(1, 6, 6, 2), gy)


def _relu_backward(gy):
    return nn.relu_backward(nn.relu(np.ones((2, 4, 4, 3), dtype=np.float32)), gy)


def _batchnorm_backward(gy):
    layer = nn.BatchNorm2d(3)
    _, cache = layer.forward_train_nhwc(_f32(2, 4, 4, 3))
    return layer.backward_nhwc(cache, gy)


def _pool_backward(gy):
    _, cache = nn.maxpool2x2_forward_nhwc(_f32(2, 4, 4, 3))
    return nn.maxpool2x2_backward_nhwc(cache, gy)


def _dropout_backward(gy):
    _, mask = nn.Dropout(0.5).forward(np.ones((2, 3), dtype=np.float32), "train",
                                      RngStream(3))
    return nn.Dropout(0.5).backward(mask, gy)


def _adam_step(g):
    p = _f32(3)
    opt = nn.Adam()
    opt.register([p])
    opt.step([p], [g])


class TestShapeContract:
    """Every backward pass, the loss and Adam check that an array has the
    shape of the one it pairs with, and the conv and dense layers that an
    input fits their weights; each names both shapes if not."""

    @pytest.mark.parametrize("call, bad, want", [
        # call(a zero array of shape bad) must raise ShapeError naming bad and want
        pytest.param(lambda x: nn.Conv2d(2, 3).forward_nhwc(x),
                     (1, 5, 5, 4), (3, 2, 3, 3), id="conv-input-channels"),
        pytest.param(lambda x: nn.Conv2d(2, 3).backward_nhwc(x, _f32(1, 6, 6, 3)),
                     (1, 6, 6, 4), (3, 2, 3, 3), id="conv-backward-input-channels"),
        pytest.param(_conv_backward, (2, 6, 6, 3), (1, 6, 6, 3), id="conv-batch"),
        pytest.param(_conv_backward, (1, 6, 4, 3), (1, 6, 6, 3), id="conv-spatial"),
        pytest.param(_conv_backward, (1, 6, 6, 2), (1, 6, 6, 3), id="conv-channels"),
        pytest.param(_batchnorm_backward, (2, 4, 4, 4), (2, 4, 4, 3), id="bn-channels"),
        pytest.param(_batchnorm_backward, (1, 4, 4, 3), (2, 4, 4, 3), id="bn-batch"),
        pytest.param(lambda gy: nn.Dense(3, 2).backward(_f32(1, 3), gy),
                     (1, 1), (1, 2), id="dense-features"),
        pytest.param(lambda x: nn.Dense(3, 2).forward(x), (1, 4), (2, 3),
                     id="dense-input-features"),
        pytest.param(lambda x: nn.Dense(3, 2).backward(x, _f32(1, 2)), (1, 4), (2, 3),
                     id="dense-backward-input-features"),
        # a (1, 3) gradient used to broadcast against the (2, 3) mask
        pytest.param(_dropout_backward, (1, 3), (2, 3), id="dropout-batch"),
        pytest.param(_relu_backward, (2, 4, 4, 4), (2, 4, 4, 3), id="relu-channels"),
        # a batch of one broadcasts
        pytest.param(_relu_backward, (1, 4, 4, 3), (2, 4, 4, 3), id="relu-batch"),
        pytest.param(_pool_backward, (1, 2, 2, 3), (2, 2, 2, 3), id="pool-batch"),
        pytest.param(lambda gy: nn.gap_backward_nhwc((2, 4, 4, 3), gy),
                     (2, 4), (2, 3), id="gap-channels"),
        # a (1, 1) gradient used to broadcast against the (2, 1) output
        pytest.param(lambda gy: nn.sigmoid_backward(nn.sigmoid(_f32(2, 1)), gy),
                     (1, 1), (2, 1), id="sigmoid-batch"),
        pytest.param(lambda p: nn.bce_loss(p, np.array([1.0, 0.0])),
                     (1,), (2,), id="bce-predictions"),
        pytest.param(_adam_step, (4,), (3,), id="adam-grad"),
    ])
    def test_mismatch_names_both_shapes(self, call, bad, want):
        with pytest.raises(ShapeError) as err:
            call(_f32(*bad))
        assert str(bad) in str(err.value) and str(want) in str(err.value)


def _pool_against_reference(x_nchw, gy_nchw):
    """Pool x both ways; assert y and gx match the loop oracle's bit for bit."""
    want_y, want_gx = maxpool2x2_reference(x_nchw, gy_nchw)
    y, cache = nn.maxpool2x2_forward_nhwc(to_nhwc(x_nchw))
    gx = to_nchw(nn.maxpool2x2_backward_nhwc(cache, to_nhwc(gy_nchw)))
    # bit patterns, so that a -0.0 where the oracle has +0.0 fails too
    bits = _bits(x_nchw.dtype)
    np.testing.assert_array_equal(to_nchw(y).view(bits), want_y.view(bits))
    np.testing.assert_array_equal(gx.view(bits), want_gx.view(bits))
    return gx


def _bits(dtype):
    """The unsigned integer dtype a float array is compared through, bit for bit."""
    return np.dtype(f"u{np.dtype(dtype).itemsize}")


# the layouts a pass that consumes its input is tested on
_LAYOUTS = ("contiguous", "transposed", "read-only")


def _laid_out(a, layout):
    """A copy of a's values: C-contiguous, a transposed view, or read-only."""
    out = np.ascontiguousarray(a.T).T if layout == "transposed" else a.copy()
    out.flags.writeable = layout != "read-only"
    return out


def _consumes(call, x, want, msg=""):
    """call(x), whose result (its first value, if it returns a tuple) must
    have want's bits.  The result is written over a C-contiguous, writeable
    x; any other x is copied and left as it was.  Returns what call did."""
    bits = _bits(want.dtype)
    x_bits = x.view(bits).copy()
    out = call(x)
    got = out[0] if isinstance(out, tuple) else out
    assert got.dtype == want.dtype and got.shape == want.shape, msg
    np.testing.assert_array_equal(got.view(bits), want.view(bits), err_msg=msg)
    consumed = x.flags.c_contiguous and x.flags.writeable
    assert np.shares_memory(got, x) == consumed, msg
    if not consumed:
        np.testing.assert_array_equal(x.view(bits), x_bits, err_msg=msg)
    return out


def _assert_float64_sum(got, want):
    """got is float32 and each of its values within one float32 step of the
    float64 sum want: a sum taken in float64 and rounded once."""
    assert got.dtype == np.float32
    assert np.all(np.abs(got - want) <= np.abs(want) * 2.0 ** -23)


def _gauss32(seed, *shape):
    return RngStream(seed).gaussian32(int(np.prod(shape))).reshape(shape)


def _band_sums(a, b, rows=None):
    """Per-channel sums of a * b over (N, H, W, C) maps as train-mode
    batchnorm takes them: a sum in the maps' dtype over each band of `rows`
    rows of the (N*H, W*C) view (one band of all rows by default), and the
    band sums added in float64."""
    N, H, W, C = a.shape
    rows = rows or N * H
    a, b = a.reshape(N * H, W * C), b.reshape(N * H, W * C)
    total = np.zeros(C)
    for r in range(0, N * H, rows):
        total += np.einsum("ic,ic->c", a[r:r + rows].reshape(-1, C),
                           b[r:r + rows].reshape(-1, C))
    return total


class TestMaxPoolOracle:
    def test_random_input_matches_reference(self):
        _pool_against_reference(_gauss32(21, 2, 3, 8, 10), _gauss32(22, 2, 3, 4, 5))

    def test_all_zero_windows_route_to_first_cell(self):
        x = nn.relu(_gauss32(23, 2, 4, 8, 8))
        x[:, :, 2:6, 0:4] = 0.0  # four all-zero windows per plane
        gy = _gauss32(24, 2, 4, 4, 4)
        win = _pool_against_reference(x, gy)[:, :, 2:6, 0:4]
        np.testing.assert_array_equal(win[:, :, 0::2, 0::2], gy[:, :, 1:3, 0:2])
        assert not win[:, :, 1::2].any() and not win[:, :, :, 1::2].any()

    def test_nan_window_pools_to_nan_and_routes_nowhere(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        x[0, 1, 0, 0] = np.nan
        y, cache = nn.maxpool2x2_forward_nhwc(x)
        gx = nn.maxpool2x2_backward_nhwc(cache, np.ones_like(y))
        assert np.isnan(y[0, 0, 0, 0]) and np.isfinite(y).sum() == 3
        assert not gx[0, :2, :2].any()
        assert gx.sum() == 3.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 4), ho=st.integers(1, 6),
           wo=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_property_matches_reference(self, n, c, ho, wo, seed, ties):
        x = _gauss32(seed, n, c, 2 * ho, 2 * wo)
        if ties:  # a few levels, so most windows hold repeated values
            x = nn.relu(np.round(x))
        _pool_against_reference(x, _gauss32(seed + 1, n, c, ho, wo))


def _conv_against_reference(n, c, k, kernel, h, w, seed):
    """A seeded c -> k conv with the given kernel, through _conv_matches_oracles."""
    layer = nn.Conv2d(c, k)
    layer.weights = _gauss32(seed, k, c, *kernel)
    layer.bias = _gauss32(seed + 3, k)
    _conv_matches_oracles(layer, _gauss32(seed + 1, n, c, h, w), _gauss32(seed + 2, n, k, h, w))


def _conv_matches_oracles(layer, x, gy):
    """Float32 forward_nhwc and backward_nhwc on NCHW x and gy against the
    float64 loop oracles.

    The output and each gradient may be off by 1e-5 of its largest
    magnitude: float32 sums of at most a few hundred products stay far
    inside that, and a kernel flipped on the wrong axis, channels swapped or
    a patch-matrix block read at the wrong offset miss it by orders.
    """
    y = layer.forward_nhwc(to_nhwc(x))
    gx, gw, gb = layer.backward_nhwc(to_nhwc(x), to_nhwc(gy))
    want = (conv2d_reference(x, layer.weights, layer.bias),
            *conv2d_backward_reference(x, layer.weights, gy))
    for got, ref in zip((to_nchw(y), to_nchw(gx), gw, gb), want):
        assert got.dtype == np.float32 and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())


class TestConvBackwardOracle:
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 5), (5, 3)])
    @pytest.mark.parametrize("c,k", [(2, 3), (3, 2)])
    def test_matches_reference(self, kernel, c, k):
        _conv_against_reference(2, c, k, kernel, 6, 7, seed=40)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 2), c=st.integers(1, 9), k=st.integers(1, 3),
           kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
           h=st.integers(1, 6), w=st.integers(1, 12), seed=st.integers(0, 2**32 - 4))
    def test_property_matches_reference(self, n, c, k, kh, kw, h, w, seed):
        _conv_against_reference(n, c, k, (kh, kw), h, w, seed)

    @pytest.mark.parametrize("c, k, kh, kw", [
        pytest.param(c, k, kh, kw, id=f"{c}-{k}" + ("" if kh == kw else f"-{kh}x{kw}"))
        for kh, kw in [(3, 3), (3, 5), (5, 3)]
        for c, k in [(3, 16), (16, 32), (32, 64), (64, 128), (128, 256), (256, 512),
                     (512, 512)]])
    def test_grad_w_bits_at_full_net_channels(self, c, k, kh, kw):
        # integers in [-2, 2] keep every float32 sum exact, so grad_w must
        # equal the float64 tap sums bit for bit in any summation order; the
        # width 8 gives p = 4, 2 and 1 across these channel counts, so the
        # fold's q:q+kw slices are pinned for each p and kernel
        def ints(seed, *shape):
            return (RngStream(seed).integers(int(np.prod(shape)), 5) - 2).reshape(shape)
        x, gy = ints(c, 2, 4, 8, c), ints(k + 1, 2, 4, 8, k)
        layer = nn.Conv2d(c, k)
        layer.weights = np.zeros((k, c, kh, kw), dtype=np.float32)
        _, gw, _ = layer.backward_nhwc(x.astype(np.float32), gy.astype(np.float32),
                                       need_grad_input=False)
        xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
        want = np.empty((k, c, kh, kw), dtype=np.float32)
        for dy in range(kh):
            for dx in range(kw):
                want[:, :, dy, dx] = np.einsum("nhwk,nhwc->kc", gy, xp[:, dy:dy + 4, dx:dx + 8])
        assert gw.flags.c_contiguous
        np.testing.assert_array_equal(gw.view(np.uint32), want.view(np.uint32))


class TestConvPixelBlocks:
    """A patch-matrix row covers p adjacent output pixels; p comes from the
    smaller of a correlation's channel counts and the width.  Each case runs
    forward, grad_w and the grad-input correlation (which writes k = 2
    channels: p = 4, or 1 at w = 5) against the loop oracles."""

    @pytest.mark.parametrize("channels, width, p", [
        (1, 512, 4), (3, 512, 4), (7, 512, 4), (8, 256, 2), (16, 256, 2),
        (31, 128, 2), (32, 128, 1), (512, 32, 1),
        (3, 6, 2), (3, 5, 1), (16, 5, 1)])
    def test_block_width_rule(self, channels, width, p):
        assert nn._block_width(channels, width) == p

    def test_p_follows_the_smaller_channel_count(self, monkeypatch):
        # a 16 -> 32 conv: the forward reads 16 channels, and the grad-input
        # correlation reads 32 and writes 16, so both run at p = 2
        seen = []
        gemm_weights = nn._gemm_weights
        monkeypatch.setattr(nn, "_gemm_weights",
                            lambda w, p: seen.append((w.shape, p)) or gemm_weights(w, p))
        layer = nn.Conv2d(16, 32)
        x = np.zeros((1, 4, 8, 16), dtype=np.float32)
        layer.backward_nhwc(x, layer.forward_nhwc(x))
        assert seen == [((32, 16, 3, 3), 2), ((16, 32, 3, 3), 2)]

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 5), (5, 3)])
    @pytest.mark.parametrize("w", [4, 8, 12, 5])  # 5: p falls back to 1
    @pytest.mark.parametrize("c", [1, 3, 5, 7, 16])
    def test_matches_reference(self, c, w, kernel):
        _conv_against_reference(2, c, 2, kernel, 3, w, seed=50)


class TestLayersAreTheirArrays:
    """A layer's shapes come from its assigned arrays, whatever counts it was
    built with, and its precision from the input."""

    def test_conv_follows_assigned_kernel_and_channels(self):
        layer = nn.Conv2d(2, 3)
        layer.weights = 0.3 * _gauss32(70, 4, 2, 5, 3)
        layer.bias = _gauss32(71, 4)
        _conv_matches_oracles(layer, _gauss32(72, 2, 2, 6, 7), _gauss32(73, 2, 4, 6, 7))

    def test_dense_follows_assigned_weights(self):
        layer = nn.Dense(4, 2)
        layer.weights = _gauss32(74, 2, 6)
        x = _gauss32(75, 3, 6)
        np.testing.assert_allclose(layer.forward(x), x @ layer.weights.T, rtol=1e-6)
        gx, gw, gb = layer.backward(x, np.ones((3, 2), dtype=np.float32))
        assert (gx.shape, gw.shape, gb.shape) == ((3, 6), (2, 6), (2,))

    def test_batchnorm_follows_assigned_channels(self):
        layer = nn.BatchNorm2d(3)
        layer.gamma, layer.beta = np.full(5, 2.0, np.float32), np.full(5, 3.0, np.float32)
        layer.running_mean, layer.running_var = np.zeros(5, np.float32), np.ones(5, np.float32)
        x = 4.0 * _gauss32(76, 4, 3, 3, 5)
        y, _ = layer.forward_train_nhwc(x.copy())
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), 3.0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=(0, 1, 2)), 2.0, rtol=1e-3)
        a = layer.gamma / np.sqrt(layer.running_var + layer.epsilon)
        want = (x - layer.running_mean) * a + layer.beta
        np.testing.assert_allclose(layer.forward_infer_nhwc(x), want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("name, shape", [
        ("weights", (3, 2, 2, 3)),   # even kh
        ("weights", (3, 2, 3, 4)),   # even kw
        ("weights", (3, 4, 3, 3)),   # 4 input channels, input has 2
        ("weights", (3, 2, 9)),      # not 4-d
        ("bias", (4,)),              # 3 output channels
    ])
    def test_conv_mismatch_rejected(self, name, shape):
        layer = nn.Conv2d(2, 3)
        setattr(layer, name, np.zeros(shape, dtype=np.float32))
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        for call in (lambda: layer.forward_nhwc(x),
                     lambda: layer.backward_nhwc(x, np.zeros((1, 4, 4, 3), np.float32))):
            with pytest.raises(ShapeError) as err:
                call()
            assert str(shape) in str(err.value) and str(x.shape) in str(err.value)

    @pytest.mark.parametrize("name, shape", [("weights", (2, 5)), ("bias", (3,))])
    def test_dense_mismatch_rejected(self, name, shape):
        layer = nn.Dense(4, 2)
        setattr(layer, name, np.zeros(shape, dtype=np.float32))
        x = np.zeros((3, 4), dtype=np.float32)
        for call in (lambda: layer.forward(x),
                     lambda: layer.backward(x, np.zeros((3, 2), np.float32))):
            with pytest.raises(ShapeError) as err:
                call()
            assert str(shape) in str(err.value) and str(x.shape) in str(err.value)

    @pytest.mark.parametrize("name", ["gamma", "beta", "running_mean", "running_var"])
    def test_batchnorm_mismatch_rejected(self, name):
        layer = nn.BatchNorm2d(3)
        setattr(layer, name, np.ones(4, dtype=np.float32))
        x = np.zeros((2, 2, 2, 3), dtype=np.float32)
        for call in (layer.forward_train_nhwc, layer.forward_infer_nhwc):
            with pytest.raises(ShapeError) as err:
                call(x)
            assert "(4,)" in str(err.value) and str(x.shape) in str(err.value)

    def test_float32_layers_compute_in_float64_for_float64_input(self):
        conv = nn.Conv2d(2, 3)
        conv.weights = _gauss32(77, 3, 2, 3, 3)
        conv.bias = _gauss32(78, 3)
        x = _gauss32(79, 2, 2, 4, 4).astype(np.float64)
        y = conv.forward_nhwc(to_nhwc(x))
        gx, gw, gb = conv.backward_nhwc(to_nhwc(x), y)
        # float64 sums: within 1e-12, where float32 would miss by ~1e-7
        want = conv2d_reference(x, conv.weights, conv.bias)
        np.testing.assert_allclose(to_nchw(y), want, rtol=0, atol=1e-12 * np.abs(want).max())
        bn = nn.BatchNorm2d(3)
        z, cache = bn.forward_train_nhwc(y.copy())
        outs = [y, gx, gw, gb, z, *bn.backward_nhwc(cache, z), bn.forward_infer_nhwc(y.copy()),
                bn.running_mean, bn.running_var]
        assert [a.dtype for a in outs] == [np.float64] * len(outs)


class TestConvRowBands:
    """Patch matrices are built one band of output rows at a time; a band
    edge must not change the result.  Shrinking the band byte budget forces
    bands of `rows` rows over 7 rows, so 4 leaves a short last band."""

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_banded_forward_and_backward_match_reference(self, monkeypatch, rows):
        c, k, (kh, kw), h, w = 2, 3, (5, 3), 7, 6
        p = 2  # pixels per patch row: 4 for 2 channels, halved to divide w = 6
        assert nn._block_width(c, w) == p
        layer = nn.Conv2d(c, k)
        layer.weights = _gauss32(42, k, c, kh, kw)
        layer.bias = _gauss32(43, k)
        x = _gauss32(44, 2, c, h, w)
        gy = to_nhwc(_gauss32(45, 2, k, h, w))
        _, gw_whole, _ = layer.backward_nhwc(to_nhwc(x), gy)
        # w/p patch rows of kh * (p + kw - 1) * c float32 columns per output row
        monkeypatch.setattr(nn, "_BAND_BYTES", rows * (w // p) * kh * (p + kw - 1) * c * 4)
        got = to_nchw(layer.forward_nhwc(to_nhwc(x)))
        want = conv2d_reference(x, layer.weights, layer.bias)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())
        _, gw, _ = layer.backward_nhwc(to_nhwc(x), gy)
        np.testing.assert_array_equal(gw.view(np.uint32), gw_whole.view(np.uint32))
        _conv_against_reference(2, c, k, (kh, kw), h, w, seed=46)


@pytest.fixture(scope="module")
def two_workers():
    """A 2-worker pool, so the threaded path runs on any host, one CPU too."""
    with ThreadPoolExecutor(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def three_workers():
    """A 3-worker pool: over most band counts its runs are uneven."""
    with ThreadPoolExecutor(3) as pool:
        yield pool


def _conv_bits(layer, x, gy):
    """forward_nhwc, then grad_x, grad_w and grad_b, as uint32."""
    return [a.view(np.uint32) for a in (layer.forward_nhwc(x), *layer.backward_nhwc(x, gy))]


class TestConvImageTasks:
    """A conv pass runs one task per image on nn._POOL, inline with one
    worker (nn._WORKERS) or one image.  Each task writes only its image's
    output, and the images' grad_w products and grad_b sums are added in
    image order, so every output and gradient bit equals the inline run's."""

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_workers_follow_the_affinity_mask(self):
        assert nn._WORKERS == len(os.sched_getaffinity(0))

    def test_first_batch_starts_the_pool(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 2)
        monkeypatch.setattr(nn, "_POOL", None)
        # one row per band, so only the batch of one and the 2-d array
        # keep these passes inline
        monkeypatch.setattr(nn, "_PASS_BYTES", 8 * 3 * 4)
        layer = nn.Conv2d(3, 4)
        x = np.zeros((1, 4, 8, 3), dtype=np.float32)
        y = nn.relu(nn.BatchNorm2d(4).forward_infer_nhwc(layer.forward_nhwc(x)))
        _, cache = nn.maxpool2x2_forward_nhwc(y)
        nn.maxpool2x2_backward_nhwc(cache, np.zeros((1, 2, 4, 4), dtype=np.float32))
        nn.relu_backward(y, y)
        head = nn.relu(np.zeros((4, 24), dtype=np.float32))
        nn.relu_backward(head, head)
        assert nn._POOL is None  # a batch of one and a 2-d array run inline
        layer.forward_nhwc(np.zeros((2, 4, 8, 3), dtype=np.float32))
        pool = nn._POOL
        try:
            assert isinstance(pool, ThreadPoolExecutor) and pool._max_workers == 2
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("c, p", [(3, 4), (8, 2), (32, 1)])
    @pytest.mark.parametrize("short_band", [False, True])
    def test_threaded_matches_inline_bitwise(self, monkeypatch, two_workers, n, c, p,
                                             short_band):
        h, w = 7, 8
        assert nn._block_width(c, w) == p
        layer = nn.Conv2d(c, c)
        layer.weights = _gauss32(90, c, c, 3, 3)
        layer.bias = _gauss32(91, c)
        x, gy = _gauss32(92, n, h, w, c), _gauss32(93, n, h, w, c)
        if short_band:
            # bands of 2 output rows over 7: the last band has one row
            monkeypatch.setattr(nn, "_BAND_BYTES", 2 * (w // p) * 3 * (p + 2) * c * 4)
        monkeypatch.setattr(nn, "_WORKERS", 2)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        threaded = _conv_bits(layer, x, gy)
        monkeypatch.setattr(nn, "_WORKERS", 1)
        inline = _conv_bits(layer, x, gy)
        for got, want in zip(threaded, inline):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")  # 3.12+
    def test_forked_child_gets_its_own_pool(self, monkeypatch, two_workers):
        # the child inherited the parent's pool without its threads, and its
        # first batched conv queued its tasks for idle workers it did not have
        monkeypatch.setattr(nn, "_WORKERS", 2)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        barrier = threading.Barrier(2)
        list(two_workers.map(lambda _: barrier.wait(10), range(2)))  # both started
        layer = nn.Conv2d(3, 4)
        layer.weights = _gauss32(96, 4, 3, 3, 3)
        x = _gauss32(97, 2, 4, 8, 3)
        want = layer.forward_nhwc(x)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(layer.forward_nhwc(x), want) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's conv did not finish in 30 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_task_exception_reaches_the_caller(self, monkeypatch, two_workers):
        monkeypatch.setattr(nn, "_WORKERS", 2)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        layer = nn.Conv2d(3, 4)
        layer.weights = _gauss32(94, 4, 3, 3, 3)
        # image n holds the value n, so the patch builder knows image 1
        x = np.repeat(np.arange(3, dtype=np.float32), 4 * 8 * 3).reshape(3, 4, 8, 3)
        gy = _gauss32(95, 3, 4, 8, 4)
        im2col = nn._im2col

        def failing(img, *args):
            if img[0, 0, 0] == 1:
                raise RuntimeError("image 1")
            return im2col(img, *args)

        monkeypatch.setattr(nn, "_im2col", failing)
        with pytest.raises(RuntimeError, match="image 1"):
            layer.forward_nhwc(x)
        with pytest.raises(RuntimeError, match="image 1"):
            layer.backward_nhwc(x, gy)
        monkeypatch.setattr(nn, "_im2col", im2col)
        threaded = _conv_bits(layer, x, gy)
        monkeypatch.setattr(nn, "_WORKERS", 1)
        for got, want in zip(threaded, _conv_bits(layer, x, gy)):
            np.testing.assert_array_equal(got, want)


class TestPassBands:
    """Batchnorm, relu, the relu backward and the pool work through a map
    one band of rows at a time (nn._each_band); with two or more images on
    the pool, each worker takes one run of consecutive bands.  A band edge
    or a run edge must not change a bit of an element-wise output.  Each of
    batchnorm's per-channel sums is taken per band and the band sums added
    in float64, in band order.  The variance and grad_gamma are band sums in
    the maps' dtype, so the formulas take them over the same bands; the mean
    and grad_beta are float64 sums, which over these few values come out the
    same in any order, so the formulas take them whole.  Each case runs
    N = 2, 3 and 5, each inline, with 2 workers and with 3.  The budget is
    cut to `rows` rows of W*C values (row pairs for the pool), so 2 or 4
    leaves a short last band over some of the 14, 21 and 35 rows, and 3
    workers get uneven runs."""

    H, W, C = 7, 6, 3
    dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])
    band_rows = pytest.mark.parametrize("rows", [1, 2, 4])

    @pytest.fixture
    def spreads(self, monkeypatch, two_workers, three_workers):
        """A generator function: for N = 2, 3 and 5 in turn it sets inline,
        2 workers and 3 workers, and yields (N, workers) after each."""
        def each():
            for n in (2, 3, 5):
                for workers, pool in ((1, None), (2, two_workers), (3, three_workers)):
                    monkeypatch.setattr(nn, "_WORKERS", workers)
                    monkeypatch.setattr(nn, "_POOL", pool)
                    yield n, workers
        return each

    def _budget(self, monkeypatch, rows, dtype, row_values):
        monkeypatch.setattr(nn, "_PASS_BYTES", rows * row_values * np.dtype(dtype).itemsize)

    def _gauss(self, seed, dtype, shape):
        return _gauss32(seed, *shape).astype(dtype)

    @dtypes
    @band_rows
    def test_batchnorm_matches_unbanded_formulas(self, monkeypatch, spreads, rows, dtype):
        # both forward passes write their output over a C-contiguous,
        # writeable x and return it; a transposed or read-only x is copied
        # and left as it was
        H, W, C = self.H, self.W, self.C
        self._budget(monkeypatch, rows, dtype, W * C)
        for N, workers in spreads():
            cnt = N * H * W
            layer = nn.BatchNorm2d(C)
            layer.gamma = 1.0 + 0.5 * self._gauss(80, dtype, (C,))
            layer.beta = self._gauss(81, dtype, (C,))
            layer.running_mean = self._gauss(62, dtype, (C,))
            layer.running_var = 0.5 + np.square(self._gauss(63, dtype, (C,)))
            x = 2.0 + 3.0 * self._gauss(82, dtype, (N, H, W, C))
            gy = self._gauss(83, dtype, (N, H, W, C))

            mean = (np.einsum("nhwc->c", x, dtype=np.float64) / cnt).astype(dtype)
            d = x - mean
            inv = (1.0 / np.sqrt(_band_sums(d, d, rows) / cnt + layer.epsilon)).astype(dtype)
            A = layer.gamma * inv
            g_gamma = (_band_sums(gy, d, rows) * inv).astype(dtype)
            g_beta = np.einsum("nhwc->c", gy, dtype=np.float64).astype(dtype)
            B = (-A * inv * g_gamma / cnt).astype(dtype)
            Cc = (-A * g_beta / cnt).astype(dtype)
            want = [gy * A + d * B + Cc, g_gamma, g_beta]
            gy_bits = gy.view(_bits(dtype)).copy()

            for layout in _LAYOUTS:
                msg = f"N = {N}, {workers} workers, {layout}"
                # running statistics move with each train-mode call
                a = layer.gamma * (1.0 / np.sqrt(layer.running_var + layer.epsilon)).astype(dtype)
                _consumes(layer.forward_infer_nhwc, _laid_out(x, layout),
                          x * a + (layer.beta - layer.running_mean * a), msg)
                xs = _laid_out(x, layout)
                _, cache = _consumes(layer.forward_train_nhwc, xs, d * A + layer.beta, msg)
                centred = cache[0]
                assert not any(np.shares_memory(xs, a) for a in cache), msg
                got = layer.backward_nhwc(cache, gy)
                for g, w in zip(got, want):
                    assert g.dtype == dtype and g.shape == w.shape
                    np.testing.assert_array_equal(g.view(_bits(dtype)), w.view(_bits(dtype)),
                                                  err_msg=msg)
                # the input gradient is written over the cached centred
                # input, so the cache serves one backward pass; gy is only read
                assert got[0] is centred
                with pytest.raises(InvalidParameterError, match="used by a backward pass"):
                    layer.backward_nhwc(cache, gy)
                np.testing.assert_array_equal(gy.view(_bits(dtype)), gy_bits)

    @dtypes
    @band_rows
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    def test_relu_backward_matches_unbanded_formula(self, monkeypatch, spreads, rows, dtype):
        # relu writes over a C-contiguous, writeable x and relu_backward
        # over such a grad_out, and each returns it; a transposed or
        # read-only one is copied and left as it was
        self._budget(monkeypatch, rows, dtype, self.W * self.C)
        for N, workers in spreads():
            shape = (N, self.H, self.W, self.C)
            x = self._gauss(84, dtype, shape)
            x.flat[::17], x.flat[5::23] = -0.0, np.nan
            gy = self._gauss(85, dtype, shape)
            # negative cells where y == 0 must read -0.0
            gy.flat[3::19], gy.flat[7::29], gy.flat[11::31] = np.nan, np.inf, -np.inf
            for layout in _LAYOUTS:
                msg = f"N = {N}, {workers} workers, {layout}"
                y = _consumes(nn.relu, _laid_out(x, layout), np.maximum(x, 0), msg)
                _consumes(lambda g: nn.relu_backward(y, g), _laid_out(gy, layout),
                          gy * (y > 0), msg)

    @dtypes
    @band_rows
    @pytest.mark.parametrize("ties", [False, True])
    def test_pool_backward_matches_reference(self, monkeypatch, spreads, rows, dtype, ties):
        H, W, C = self.H, self.W, self.C
        self._budget(monkeypatch, rows, dtype, 2 * W * C)
        for N, _ in spreads():
            x = _gauss32(86, N, C, 2 * H, W).astype(dtype)
            if ties:
                x = nn.relu(np.round(x))
            _pool_against_reference(x, _gauss32(87, N, C, H, W // 2).astype(dtype))

    def test_run_exception_reaches_the_caller(self, monkeypatch, two_workers):
        N, H, W, C = 3, self.H, 2 * self.W, self.C
        monkeypatch.setattr(nn, "_WORKERS", 2)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        self._budget(monkeypatch, 2, np.float32, 2 * W * C)
        layer, frozen = nn.BatchNorm2d(C), nn.BatchNorm2d(C)  # frozen: infer mode only
        frozen.running_mean = _gauss32(91, C)
        x, gy = _gauss32(88, N, 2 * H, W, C), _gauss32(89, N, 2 * H, W, C)
        gp = _gauss32(90, N, H, W // 2, C)

        # the forward passes write over their inputs, so each gets a copy
        def passes():
            y, cache = layer.forward_train_nhwc(x.copy())
            r = nn.relu(y.copy())
            p, p_cache = nn.maxpool2x2_forward_nhwc(r)
            out = [y, *layer.backward_nhwc(cache, gy), frozen.forward_infer_nhwc(x.copy()), r,
                   nn.relu_backward(r, gy.copy()), p,
                   nn.maxpool2x2_backward_nhwc(p_cache, gp)]
            return [a.view(np.uint32) for a in out], r, p_cache

        _, r, p_cache = passes()
        _, cache = layer.forward_train_nhwc(x.copy())  # a backward pass uses its cache up
        spread = nn._spread

        def failing(task, items):
            def run(item):
                if item is items[1]:
                    raise RuntimeError("run 1")
                return task(item)
            return spread(run, items)

        monkeypatch.setattr(nn, "_spread", failing)
        for call in (lambda: layer.forward_train_nhwc(x.copy()),
                     lambda: layer.backward_nhwc(cache, gy),
                     lambda: frozen.forward_infer_nhwc(x.copy()),
                     lambda: nn.relu(x.copy()),
                     lambda: nn.relu_backward(r, gy.copy()),
                     lambda: nn.maxpool2x2_forward_nhwc(r),
                     lambda: nn.maxpool2x2_backward_nhwc(p_cache, gp)):
            with pytest.raises(RuntimeError, match="run 1"):
                call()
        monkeypatch.setattr(nn, "_spread", spread)
        threaded, *_ = passes()
        monkeypatch.setattr(nn, "_WORKERS", 1)
        inline, *_ = passes()
        for got, want in zip(threaded, inline):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backward", ["relu", "batchnorm"])
    def test_backward_allocates_no_full_size_map(self, monkeypatch, two_workers, workers,
                                                 backward):
        # each writes the input gradient over a map that it consumes, so it
        # allocates only band-sized temporaries: under half of one map here
        monkeypatch.setattr(nn, "_WORKERS", workers)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        x, gy = _gauss32(98, 2, 128, 128, 16), _gauss32(99, 2, 128, 128, 16)
        layer = nn.BatchNorm2d(16)
        if backward == "relu":
            y = nn.relu(x)
            call = lambda: nn.relu_backward(y, gy)  # noqa: E731
        else:
            _, cache = layer.forward_train_nhwc(x)
            call = lambda: layer.backward_nhwc(cache, gy)  # noqa: E731
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("forward", ["relu", "batchnorm_infer", "batchnorm_train"])
    def test_forward_allocates_only_its_cache(self, monkeypatch, two_workers, workers,
                                              forward):
        # each writes its output over the map that it consumes, so it
        # allocates only band-sized temporaries, and train-mode batchnorm
        # its one-map cache besides: under half a map, or 1.5 maps
        monkeypatch.setattr(nn, "_WORKERS", workers)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        x = _gauss32(98, 2, 128, 128, 16)
        layer = nn.BatchNorm2d(16)
        call, maps = {"relu": (lambda: nn.relu(x), 0.5),
                      "batchnorm_infer": (lambda: layer.forward_infer_nhwc(x), 0.5),
                      "batchnorm_train": (lambda: layer.forward_train_nhwc(x), 1.5)}[forward]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < maps * x.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runs_keep_the_callers_error_state(self, monkeypatch, two_workers, workers):
        # inf * 0 wherever y == 0; a pool thread's own error state would warn
        monkeypatch.setattr(nn, "_WORKERS", workers)
        monkeypatch.setattr(nn, "_POOL", two_workers)
        self._budget(monkeypatch, 1, np.float32, self.W * self.C)
        y = np.zeros((2, self.H, self.W, self.C), dtype=np.float32)
        gy = np.full(y.shape, np.inf, dtype=np.float32)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            nn.relu_backward(y, gy)


class TestDense:
    def test_identity(self):
        layer = nn.Dense(3, 3)
        layer.weights[:] = np.eye(3, dtype=np.float32)
        x = _gauss32(1, 2, 3)
        np.testing.assert_allclose(layer.forward(x), x, rtol=1e-6)


class TestDropout:
    def test_train_mode_zero_fraction_and_mean(self):
        layer = nn.Dropout(0.5)
        rng = RngStream(12)
        x = (0.5 + RngStream(13).uniform(100_000)).astype(np.float32).reshape(-1)
        y, mask = layer.forward(x, mode="train", rng=rng)
        zeroed = float(np.mean(y == 0))
        assert 0.49 <= zeroed <= 0.51
        assert abs(y.mean() - x.mean()) <= 0.02 * x.mean()
        assert mask is not None

    def test_infer_is_identity(self):
        layer = nn.Dropout(0.5)
        x = np.arange(8, dtype=np.float32)
        y, mask = layer.forward(x, mode="infer")
        np.testing.assert_array_equal(y, x)
        assert mask is None
        np.testing.assert_array_equal(layer.backward(mask, x), x)

    def test_fixed_seed_reproducible(self):
        layer = nn.Dropout(0.3)
        x = np.ones(1000, dtype=np.float32)
        y1, _ = layer.forward(x, mode="train", rng=RngStream(77))
        y2, _ = layer.forward(x, mode="train", rng=RngStream(77))
        np.testing.assert_array_equal(y1, y2)

    def test_rate_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            nn.Dropout(1.0)

    def test_rate_zero_keeps_values_and_draws(self):
        x = _gauss32(14, 3, 5)
        rng, twin = RngStream(15), RngStream(15)
        y, mask = nn.Dropout(0.0).forward(x, "train", rng)
        np.testing.assert_array_equal(y.view(np.uint32), x.view(np.uint32))
        np.testing.assert_array_equal(mask, np.ones_like(x))
        twin.uniform(x.size)
        np.testing.assert_array_equal(rng.uniform(4), twin.uniform(4))

    @pytest.mark.parametrize("mode, rng, error", [
        ("eval", RngStream(1), "unknown mode 'eval'"),
        ("train", None, "train-mode dropout needs an RngStream")])
    def test_bad_mode_or_missing_rng_rejected(self, mode, rng, error):
        for rate in (0.5, 0.0):
            with pytest.raises(InvalidParameterError, match=error):
                nn.Dropout(rate).forward(np.ones(4, dtype=np.float32), mode, rng)


class TestBceLoss:
    def test_half_prediction_gives_ln2(self):
        p = np.array([0.5, 0.5])
        for labels in ([1.0, 0.0], [0.0, 0.0], [1.0, 1.0]):
            loss, _ = nn.bce_loss(p, np.array(labels))
            assert loss == pytest.approx(np.log(2.0), rel=1e-6)

    def test_exact_prediction_near_zero(self):
        p = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        loss, _ = nn.bce_loss(p, y)
        assert loss <= 1e-6 * abs(np.log(1e-7))


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        p = np.array([1.0, -2.0], dtype=np.float32)
        opt = nn.Adam()
        opt.register([p])
        opt.step([p], [np.zeros_like(p)])
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_magnitude_is_lr(self):
        # closed form: step 1 with constant grad g is -lr * g / (|g| + eps)
        p = np.array([0.3, -0.7], dtype=np.float64)
        g = np.array([0.5, -0.2], dtype=np.float64)
        opt = nn.Adam(learning_rate=0.001)
        opt.register([p])
        before = p.copy()
        opt.step([p], [g])
        np.testing.assert_allclose(np.abs(p - before), 0.001, rtol=1e-6)
        np.testing.assert_allclose(np.sign(before - p), np.sign(g))

    def test_hundred_steps_on_quadratic(self):
        # oracle: independent direct simulation of the same recurrence
        want = adam_scalar_reference(1.0, lambda x: 2.0 * x, lr=0.1, steps=100)
        p = np.array([1.0], dtype=np.float64)
        opt = nn.Adam(learning_rate=0.1)
        opt.register([p])
        for _ in range(100):
            opt.step([p], [2.0 * p])
        assert p[0] == pytest.approx(want, abs=1e-12)
        assert abs(p[0]) < 0.1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_textbook_expressions_bitwise(self, dtype):
        # m, v and the update in this order, each op in the parameters' dtype
        opt = nn.Adam(learning_rate=3e-3)
        b1, b2, lr, eps = opt.beta1, opt.beta2, opt.learning_rate, opt.epsilon
        p = _gauss32(90, 4, 5).astype(dtype)
        want, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        opt.register([p])
        for t in range(1, 4):
            g = _gauss32(90 + t, 4, 5).astype(dtype)
            opt.step([p], [g])
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * np.square(g)
            want -= lr * (m * (1.0 / (1.0 - b1 ** t))) / (
                np.sqrt(v * (1.0 / (1.0 - b2 ** t))) + eps)
            assert p.dtype == dtype
            np.testing.assert_array_equal(p.view(_bits(dtype)), want.view(_bits(dtype)))

    def test_shape_mismatch_leaves_every_state_unchanged(self):
        # param 0 used to be updated before grad 1's shape was checked
        p, q = np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)
        opt = nn.Adam()
        opt.register([p, q])
        opt.step([p, q], [np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)])
        before = [a.copy() for a in (p, q, *opt.first_moment, *opt.second_moment)]
        with pytest.raises(ShapeError, match=r"grad \(5,\) does not match param \(2,\)"):
            opt.step([p, q], [np.ones(3, dtype=np.float32), np.ones(5, dtype=np.float32)])
        assert opt.step_count == 1
        for got, want in zip((p, q, *opt.first_moment, *opt.second_moment), before):
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_short_grad_list_rejected(self):
        # zip would stop at the shorter list and leave q untouched
        p, q = np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32)
        opt = nn.Adam()
        opt.register([p, q])
        with pytest.raises(ShapeError, match="2 params and 1 grads"):
            opt.step([p, q], [np.ones(3, dtype=np.float32)])
