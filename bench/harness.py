"""The benchmark's one adapter onto volcnn.

Every call the benchmark makes into ``volcnn`` and the two reference nets
live in this module, so a change to the layer protocol updates this file
alone.

ASSUMPTION: the package has no model module yet, so the two nets are
assembled here from public ``volcnn.nn`` layers until one replaces them.
Each of the seven blocks is conv3x3 -> BN -> ReLU -> maxpool 2x2, taking
512x512 down to 4x4; the head is GAP -> Dense -> ReLU -> Dropout(0.5) ->
Dense(->1) -> sigmoid.  Maps are NHWC throughout, with one transpose at
the input.  Weights are He-normal from NumPy's own ``Generator(seed)``,
not from ``RngStream``, so a change to ``volcnn.tensor`` cannot change
the nets being timed.
"""

from __future__ import annotations

import datetime

import numpy as np

from volcnn import dataset as ds
from volcnn import nn
from volcnn import preprocess as pp
from volcnn.tensor import RngStream

IMAGE = 512
KERNEL = 3
NETS = {
    # name: (conv output channels of blocks 0..6, hidden width of the head)
    "full": ((16, 32, 64, 128, 256, 512, 512), 64),
    "pruned": ((8, 16, 32, 64, 128, 256, 256), 32),
}
TRAIN_BATCH = 4
NOISE_SIGMA = 0.02  # ASSUMPTION: the paper names white Gaussian noise, not its sigma
DROPOUT = 0.5

# Public calls wrapped in spans in the traced run.
TRACED_CALLS = (
    (pp, "preprocess", ("load_band_planes", "normalize_sensor", "merge_bands",
                        "bicubic_resize", "compose_patch", "preprocess_raw",
                        "augment", "add_gaussian_noise", "save_composite",
                        "load_composite")),
    (ds, "dataset", ("load_sample", "balanced_batches")),
)

_ACQUIRED = datetime.date(2020, 1, 1)


def _he_normal(gen, shape, fan_in):
    return (gen.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


class Net:
    """One reference net: seven conv blocks and the dense head."""

    def __init__(self, name, seed):
        channels, hidden = NETS[name]
        gen = np.random.default_rng(seed % 2**64)
        self.name = name
        self.convs, self.bns = [], []
        cin = 3
        for cout in channels:
            conv = nn.Conv2d(cin, cout)
            conv.weights = _he_normal(gen, conv.weights.shape, cin * KERNEL * KERNEL)
            self.convs.append(conv)
            self.bns.append(nn.BatchNorm2d(cout))
            cin = cout
        self.dense0 = nn.Dense(cin, hidden)
        self.dense0.weights = _he_normal(gen, self.dense0.weights.shape, cin)
        self.dense1 = nn.Dense(hidden, 1)
        self.dense1.weights = _he_normal(gen, self.dense1.weights.shape, hidden)
        self.dropout = nn.Dropout(DROPOUT)

    def params(self):
        out = []
        for conv, bn in zip(self.convs, self.bns):
            out += [conv.weights, conv.bias, bn.gamma, bn.beta]
        return out + [self.dense0.weights, self.dense0.bias,
                      self.dense1.weights, self.dense1.bias]

    def export(self):
        """Plain float64 copies of every parameter, for the reference forward."""
        f = lambda a: np.array(a, dtype=np.float64)  # noqa: E731
        return {
            "blocks": [dict(w=f(c.weights), b=f(c.bias), gamma=f(bn.gamma),
                            beta=f(bn.beta), mean=f(bn.running_mean),
                            var=f(bn.running_var), eps=bn.epsilon)
                       for c, bn in zip(self.convs, self.bns)],
            "dense": [(f(d.weights), f(d.bias)) for d in (self.dense0, self.dense1)],
        }


def forward(net, x, train, tracer, rng=None):
    """NHWC batch (N, 512, 512, 3) -> (scores (N, 1), logits (N, 1), cache)."""
    blocks = []
    for i, (conv, bn) in enumerate(zip(net.convs, net.bns)):
        p = f"nn.{net.name}.b{i}."
        x_in = x
        with tracer.span(p + "conv.fwd"):
            x = conv.forward_nhwc(x)
        with tracer.span(p + "bn.fwd"):
            if train:
                x, bn_cache = bn.forward_train_nhwc(x)
            else:
                x, bn_cache = bn.forward_infer_nhwc(x), None
        with tracer.span(p + "relu.fwd"):
            r = nn.relu(x)
        with tracer.span(p + "pool.fwd"):
            x, idx = nn.maxpool2x2_forward_nhwc(r)
        if train:
            blocks.append((x_in, bn_cache, r, idx))
    p = f"nn.{net.name}.head."
    pooled_shape = x.shape
    with tracer.span(p + "gap.fwd"):
        g = nn.gap_forward_nhwc(x)
    with tracer.span(p + "dense0.fwd"):
        z0 = net.dense0.forward(g)
    with tracer.span(p + "relu.fwd"):
        a0 = nn.relu(z0)
    with tracer.span(p + "dropout.fwd"):
        d, mask = net.dropout.forward(a0, "train" if train else "infer", rng)
    with tracer.span(p + "dense1.fwd"):
        z1 = net.dense1.forward(d)
    with tracer.span(p + "sigmoid.fwd"):
        s = nn.sigmoid(z1)
    return s, z1, (blocks, pooled_shape, g, a0, d, mask, s)


def backward(net, cache, grad_scores, tracer):
    """Gradients aligned with net.params(); the input gradient is not formed."""
    blocks, pooled_shape, g, a0, d, mask, s = cache
    p = f"nn.{net.name}.head."
    with tracer.span(p + "sigmoid.bwd"):
        gz1 = nn.sigmoid_backward(s, grad_scores)
    with tracer.span(p + "dense1.bwd"):
        gd, gw1, gb1 = net.dense1.backward(d, gz1)
    with tracer.span(p + "dropout.bwd"):
        ga0 = net.dropout.backward(mask, gd)
    with tracer.span(p + "relu.bwd"):
        gz0 = nn.relu_backward(a0, ga0)
    with tracer.span(p + "dense0.bwd"):
        gg, gw0, gb0 = net.dense0.backward(g, gz0)
    with tracer.span(p + "gap.bwd"):
        gx = nn.gap_backward_nhwc(pooled_shape, gg)
    block_grads = [None] * len(blocks)
    for i in reversed(range(len(blocks))):
        x_in, bn_cache, r, idx = blocks[i]
        p = f"nn.{net.name}.b{i}."
        with tracer.span(p + "pool.bwd"):
            gx = nn.maxpool2x2_backward_nhwc(idx, gx)
        with tracer.span(p + "relu.bwd"):
            gx = nn.relu_backward(r, gx)
        with tracer.span(p + "bn.bwd"):
            gx, ggamma, gbeta = net.bns[i].backward_nhwc(bn_cache, gx)
        with tracer.span(p + "conv.bwd"):
            gx, gw, gb = net.convs[i].backward_nhwc(x_in, gx, need_grad_input=i > 0)
        block_grads[i] = [gw, gb, ggamma, gbeta]
    return [t for bg in block_grads for t in bg] + [gw0, gb0, gw1, gb1]


def to_nhwc(images):
    """(N, 3, H, W) composites -> the nets' (N, H, W, 3) input: the one transpose."""
    return np.ascontiguousarray(images.transpose(0, 2, 3, 1))


def make_samples(seed, n_per_class, out_dir):
    """Seeded synthetic patches on disk; returns the manifest's samples."""
    return ds.synth_generate(n_per_class, seed, out_dir).samples


def patch_path(sample):
    return f"{sample.path}/{ds.PATCH_FILENAME}"


def sensor_profile(sensor):
    prof = pp.PROFILES[sensor]
    return np.array(prof.scale), np.array(prof.offset)


def score_patch(net, path, tracer):
    """One on-board request: VBP1 file -> preprocess_raw -> NHWC -> score.

    Returns (raw planes, sensor, score, logit).
    """
    planes, sensor = pp.load_band_planes(path)
    raw = pp.BandPatch(*planes, sensor=sensor, center_lat=0.0, center_lon=0.0,
                       acquired=_ACQUIRED)
    composite = pp.preprocess_raw(raw)
    s, z, _ = forward(net, to_nhwc(composite.pixels[None]), False, tracer)
    return planes, sensor, float(s[0, 0]), float(z[0, 0])


class Trainer:
    """Full-net training state: samples, net, Adam and the step RNG."""

    def __init__(self, samples, seed):
        self.samples = samples
        self.net = Net("full", seed)
        self.params = self.net.params()
        self.opt = nn.Adam()
        self.opt.register(self.params)
        self.rng = RngStream(seed).fork("train")

    def step(self, k, tracer):
        """One step: batch, load, compose, augment, noise, fwd, BCE, bwd, Adam.

        Returns (loss, net input, labels, dropout mask) for the checks.
        """
        rng = self.rng.fork(f"step/{k}")
        plan = ds.balanced_batches(self.samples, TRAIN_BATCH, TRAIN_BATCH,
                                   rng.fork("batch"))
        images, labels = [], []
        for j, i in enumerate(plan.batches[0]):
            patch, label, _ = ds.load_sample(self.samples[i])
            img = pp.compose_patch(patch).pixels
            img = pp.augment(img, rng.fork(f"augment/{j}"))
            images.append(pp.add_gaussian_noise(img, NOISE_SIGMA, rng.fork(f"noise/{j}")))
            labels.append(label)
        x = to_nhwc(np.stack(images))
        y = np.array(labels, dtype=np.float32)[:, None]
        s, _, cache = forward(self.net, x, True, tracer, rng.fork("dropout"))
        with tracer.span("nn.full.head.bce.fwd"):
            loss, gs = nn.bce_loss(s, y)
        grads = backward(self.net, cache, gs, tracer)
        with tracer.span("nn.adam.step"):
            self.opt.step(self.params, grads)
        return loss, x, y, cache[5]


def ingest_sample(sample, out_path):
    """One cache entry: load_sample -> compose_patch -> save -> load back.

    Returns (composite pixels, pixels read back).
    """
    patch, _, _ = ds.load_sample(sample)
    composite = pp.compose_patch(patch, provenance=sample.path)
    pp.save_composite(out_path, composite)
    return composite.pixels, pp.load_composite(out_path).pixels


# ---------------------------------------------------------------------------
# fixed per-layer costs
# ---------------------------------------------------------------------------


def conv_flops(n, h, w, cin, cout, k=KERNEL):
    """Multiply-adds x 2 of one same-padded stride-1 conv forward."""
    return 2 * n * h * w * cin * cout * k * k


def _net_costs(net_name, batch):
    channels, _ = NETS[net_name]
    out = {}
    cin, size = 3, IMAGE
    for i, cout in enumerate(channels):
        p = f"nn.{net_name}.b{i}."
        fwd = conv_flops(batch, size, size, cin, cout)
        out[p + "conv.fwd"] = {"flops": fwd}
        out[p + "conv.bwd"] = {"flops": fwd * (2 if i else 1)}
        act = 4 * batch * size * size * cout
        pooled = act // 4
        out[p + "bn.fwd"] = {"bytes_computed": 2 * act}
        out[p + "bn.bwd"] = {"bytes_computed": 3 * act}
        out[p + "pool.fwd"] = {"bytes_computed": act + pooled + pooled // 4}
        out[p + "pool.bwd"] = {"bytes_computed": pooled + pooled // 4 + act}
        cin, size = cout, size // 2
    return out


def span_costs(batch):
    """Per span name at this batch size: fixed FLOPs (convs) or computed bytes.

    Bytes are input plus output array sizes (plus the pool's uint8 argmax
    indices); they ignore cache traffic and temporaries.  Conv backward
    counts the weight gradient, plus the input gradient for blocks 1..6.
    The resize entry is per (3, 256, 256) -> (3, 512, 512) float32 patch.
    """
    out = {}
    for net_name in NETS:
        out.update(_net_costs(net_name, batch))
    src = ds.SYNTH_PATCH_SIZE
    out["preprocess.bicubic_resize"] = {"bytes_computed": 4 * 3 * (src * src + IMAGE * IMAGE)}
    return out


def per_layer_names():
    """The per-layer metric names: median self ms per call of these spans."""
    names = [f"preprocess.{n}_ms" for n in (
        "load_band_planes", "normalize_sensor", "merge_bands", "bicubic_resize",
        "augment", "add_gaussian_noise", "save_composite", "load_composite")]
    names += ["dataset.load_sample_ms", "dataset.balanced_batches_ms"]
    for net_name, passes in (("full", ("fwd", "bwd")), ("pruned", ("fwd",))):
        for i in range(len(NETS[net_name][0])):
            names += [f"nn.{net_name}.b{i}.{layer}.{d}_ms"
                      for layer in ("conv", "bn", "relu", "pool") for d in passes]
    names += [f"nn.full.head.{layer}.{d}_ms"
              for layer in ("gap", "dense0", "dense1", "dropout", "sigmoid")
              for d in ("fwd", "bwd")]
    names += ["nn.full.head.bce.fwd_ms"]
    names += [f"nn.pruned.head.{layer}.fwd_ms"
              for layer in ("gap", "dense0", "dense1", "sigmoid")]
    return names + ["nn.adam.step_ms"]
