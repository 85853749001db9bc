import datetime
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volcnn import dataset as ds
from volcnn import preprocess as pp
from volcnn.errors import InvalidParameterError, ModelFormatError, ShapeError
from volcnn.tensor import RngStream

from oracles import bicubic_resize_reference


def make_patch(h=8, w=8, sensor=pp.Sensor.SYNTHETIC, **bands):
    planes = {name: np.full((h, w), 0.1, dtype=np.float32) for name in pp.BAND_ORDER}
    for name, value in bands.items():
        planes[name] = np.full((h, w), value, dtype=np.float32) \
            if np.isscalar(value) else value.astype(np.float32)
    return pp.BandPatch(sensor=sensor, center_lat=0.0, center_lon=0.0,
                        acquired=datetime.date(2019, 6, 22), **planes)


class TestNormalizeSensor:
    def test_sentinel2_dn_scaling(self):
        raw = make_patch(blue=5000.0, sensor=pp.Sensor.SENTINEL2)
        out = pp.normalize_sensor(raw, pp.PROFILES[pp.Sensor.SENTINEL2])
        assert out.blue[0, 0] == pytest.approx(0.5)

    def test_over_range_clipped(self):
        raw = make_patch(red=20000.0, sensor=pp.Sensor.SENTINEL2)
        out = pp.normalize_sensor(raw, pp.PROFILES[pp.Sensor.SENTINEL2])
        assert out.red[0, 0] == 1.0

    def test_zero_dn(self):
        raw = make_patch(green=0.0, sensor=pp.Sensor.SENTINEL2)
        out = pp.normalize_sensor(raw, pp.PROFILES[pp.Sensor.SENTINEL2])
        assert out.green[0, 0] == 0.0

    def test_sensor_mismatch(self):
        raw = make_patch(sensor=pp.Sensor.LANDSAT7)
        with pytest.raises(InvalidParameterError,
                           match="patch sensor LANDSAT7 != profile SENTINEL2"):
            pp.normalize_sensor(raw, pp.PROFILES[pp.Sensor.SENTINEL2])


class TestMergeBands:
    def test_red_with_active_swir_term(self):
        patch = make_patch(red=0.2, swir2=0.3)
        rgb = pp.merge_bands(patch)
        assert rgb[0, 0, 0] == pytest.approx(2.5 * 0.2 + 0.2, abs=1e-6)

    def test_green_with_inactive_swir_term(self):
        patch = make_patch(green=0.1, swir1=0.05)
        rgb = pp.merge_bands(patch)
        assert rgb[1, 0, 0] == pytest.approx(0.25, abs=1e-6)

    def test_green_with_active_swir_term(self):
        patch = make_patch(green=0.1, swir1=0.3)
        rgb = pp.merge_bands(patch)
        assert rgb[1, 0, 0] == pytest.approx(0.25 + 0.2, abs=1e-6)

    def test_blue_clipped(self):
        patch = make_patch(blue=0.5)
        rgb = pp.merge_bands(patch)
        assert rgb[2, 0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_swir2(self):
        rng = RngStream(30)
        base = rng.uniform(64).reshape(8, 8).astype(np.float32)
        lo = make_patch(swir2=base)
        hi = make_patch(swir2=np.clip(base + 0.2, 0, 1).astype(np.float32))
        assert np.all(pp.merge_bands(hi)[0] >= pp.merge_bands(lo)[0])


class TestBicubicResize:
    def test_constant_preserved(self):
        for size in [7, 16, 33]:
            img = np.full((2, size, size), 0.3, dtype=np.float32)
            out = pp.bicubic_resize(img, target=(24, 24))
            np.testing.assert_allclose(out, 0.3, atol=1e-6)

    def test_linear_ramp_reproduced_in_interior(self):
        # The a=-0.75 cubic kernel carries a small first-moment deviation
        # (max ~0.047 x the per-sample step), unlike a=-0.5 which is exact
        # on linears; a gentle unit ramp keeps that bias under the 1e-3 bound.
        w_in, w_out = 64, 128
        ramp = np.tile(np.linspace(0.0, 1.0, w_in, dtype=np.float64), (8, 1))
        out = pp.bicubic_resize(ramp[None], target=(8, w_out))[0]
        src = (np.arange(w_out) + 0.5) * (w_in / w_out) - 0.5
        want = src / (w_in - 1)
        interior = (src >= 1.0) & (src <= w_in - 2.0)
        np.testing.assert_allclose(out[4, interior], want[interior], atol=1e-3)

    def test_upscale_shape(self):
        img = np.zeros((3, 256, 256), dtype=np.float32)
        assert pp.bicubic_resize(img).shape == (3, 512, 512)

    # (0, 512) raised ZeroDivisionError, the negative sizes NumPy's bare
    # ValueError from the first allocation
    @pytest.mark.parametrize("target", [(0, 512), (-1, 4), (4, -1)])
    @pytest.mark.parametrize("call", ["bicubic_resize", "compose_patch"])
    def test_target_must_be_two_positive_ints(self, target, call):
        with pytest.raises(InvalidParameterError,
                           match=rf"target must be two positive ints, got \({target[0]}, "):
            if call == "bicubic_resize":
                pp.bicubic_resize(np.zeros((3, 8, 8), dtype=np.float32), target=target)
            else:
                pp.compose_patch(make_patch(), target=target)

    def test_identity_at_same_size(self):
        rng = RngStream(31)
        img = rng.uniform(3 * 12 * 12).reshape(3, 12, 12).astype(np.float32)
        out = pp.bicubic_resize(img, target=(12, 12))
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_too_small_rejected(self):
        with pytest.raises(ShapeError):
            pp.bicubic_resize(np.zeros((1, 3, 8), dtype=np.float32))

    def test_warm_composite_resize_peak(self):
        # Input 0.75 MiB, float64 copy 1.5, output 3, one resampling matrix
        # 1; a full (3, 512, 256) float64 intermediate (3 MiB) would not fit.
        img = self._image(0, (3, 256, 256))
        pp.bicubic_resize(img)
        tracemalloc.start()
        try:
            pp.bicubic_resize(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 << 20

    @staticmethod
    def _image(seed, shape):
        # values a little outside [0, 1], so the clip is exercised too
        u = np.random.default_rng(seed).random(shape)
        return (1.2 * u - 0.1).astype(np.float32)

    @pytest.mark.parametrize("shape, target", [
        ((3, 20, 20), (45, 45)),
        ((2, 64, 64), (23, 23)),
        ((1, 16, 40), (33, 70)),
        ((3, 33, 16), (12, 40)),
        ((1, 24, 24), (64, 64)),
        ((2, 9, 50), (31, 7)),
    ], ids=["up", "down", "nonsquare-up", "mixed", "band-multiple", "mixed-odd"])
    def test_matches_reference(self, shape, target):
        img = self._image(sum(shape) + sum(target), shape)
        np.testing.assert_allclose(pp.bicubic_resize(img, target=target),
                                   bicubic_resize_reference(img, target),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("band", [1, 5])
    def test_short_bands_match_reference(self, monkeypatch, band):
        # bands of `band` output rows, so 5 leaves a short last band in both axes
        monkeypatch.setattr(pp, "_RESIZE_BAND", band)
        img = self._image(band, (2, 17, 23))
        np.testing.assert_allclose(pp.bicubic_resize(img, target=(29, 12)),
                                   bicubic_resize_reference(img, (29, 12)),
                                   rtol=0, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(c=st.integers(1, 2), h=st.integers(4, 12), w=st.integers(4, 12),
           th=st.integers(1, 40), tw=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_property_matches_reference(self, c, h, w, th, tw, seed):
        img = self._image(seed, (c, h, w))
        np.testing.assert_allclose(pp.bicubic_resize(img, target=(th, tw)),
                                   bicubic_resize_reference(img, (th, tw)),
                                   rtol=0, atol=1e-6)


class TestGoldenDigest:
    """SHA-256 of the float32 composites (viewed as uint32) that
    preprocess_raw makes from the patches of synth_generate(2, seed), in
    manifest order.  The digests were computed with the gather-and-einsum
    resize that preceded the banded resampling matrices; a refactor of the
    pipeline must keep them."""

    DIGESTS = {
        1: "fe7378a35fbd4cee40023eef6e99164185497e67f352f297a5adbce4cf032ce6",
        2: "7740f63210b7a5b0eecd8aeabed225402f0f48ad382589cf818c7465ad11f81d",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_preprocess_raw_digest_pinned(self, tmp_path, seed):
        manifest = ds.synth_generate(2, seed, out_dir=str(tmp_path))
        h = hashlib.sha256()
        for sample in manifest.samples:
            patch, _, _ = ds.load_sample(sample)
            h.update(pp.preprocess_raw(patch).pixels.view(np.uint32).tobytes())
        assert h.hexdigest() == self.DIGESTS[seed]


class TestResizeDigest:
    """SHA-256 of bicubic_resize outputs, viewed as uint32, computed with the
    two-pass resize that kept a full (C, th, W) float64 intermediate.  The
    inputs run from -0.1 to 1.1, so the clip at both ends is covered; the
    short case has bands of 5 rows, short at the end of both axes."""

    DIGESTS = {
        1: "3b885eb72dc549de4e1561284935e47f9e1f2791b945c877e7bb51be3645fbde",
        2: "f98b72e75efaed491b9b8bd1f9717c271a0184f86466dc14abc5d79ed51a8a4f",
        3: "275ea460be47b0bdca104f31e78c958f760363716979e5165264046c46318376",
    }
    SHORT_BANDS_DIGEST = "a1fbcfab18a9b76ff8388ab18c0f9be1fcce3866ffe4c7c676bcc463606b3f23"

    @staticmethod
    def _digest(out):
        assert out.dtype == np.float32
        return hashlib.sha256(out.view(np.uint32).tobytes()).hexdigest()

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_composite_size_digest_pinned(self, seed):
        img = TestBicubicResize._image(seed, (3, 256, 256))
        assert self._digest(pp.bicubic_resize(img)) == self.DIGESTS[seed]

    def test_short_bands_digest_pinned(self, monkeypatch):
        monkeypatch.setattr(pp, "_RESIZE_BAND", 5)
        img = TestBicubicResize._image(4, (2, 17, 23))
        assert self._digest(pp.bicubic_resize(img, target=(29, 12))) == self.SHORT_BANDS_DIGEST


class TestGaussianNoise:
    def test_sigma_zero_identity(self):
        img = RngStream(1).uniform(48).reshape(3, 4, 4).astype(np.float32)
        out = pp.add_gaussian_noise(img, 0.0, RngStream(2))
        np.testing.assert_array_equal(out, img)

    def test_noise_std_matches_sigma(self):
        img = np.full((1, 512, 512), 0.5, dtype=np.float32)
        out = pp.add_gaussian_noise(img, 0.02, RngStream(3))
        std = float((out - img).std())
        assert 0.018 <= std <= 0.022

    def test_clipped_at_one(self):
        img = np.full((1, 64, 64), 0.999, dtype=np.float32)
        out = pp.add_gaussian_noise(img, 0.5, RngStream(4))
        assert out.max() == 1.0 and out.min() >= 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            pp.add_gaussian_noise(np.zeros((1, 4, 4), dtype=np.float32), -0.1,
                                  RngStream(5))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        # NaN passed a bare `sigma < 0` check and made an all-NaN composite;
        # inf saturated every pixel to 0 or 1
        with pytest.raises(InvalidParameterError, match="sigma"):
            pp.add_gaussian_noise(np.zeros((1, 4, 4), dtype=np.float32), sigma,
                                  RngStream(5))

    def test_float32_noise_keeps_dtype_and_is_seeded(self):
        img = np.full((3, 8, 8), 0.5, dtype=np.float32)
        a = pp.add_gaussian_noise(img, 0.02, RngStream(6))
        assert a.dtype == np.float32
        np.testing.assert_array_equal(a, pp.add_gaussian_noise(img, 0.02, RngStream(6)))
        np.testing.assert_allclose(a - img, 0.02 * RngStream(6).gaussian32(img.size)
                                   .reshape(img.shape), rtol=0, atol=1e-7)


class TestNoiseDigest:
    """SHA-256 of add_gaussian_noise(image, 0.02, RngStream(seed)), viewed as
    uint32, for a fixed 3x64x64 image whose values run from 0 to 1, so the
    clip at both ends is covered.  It pins the bits of gaussian32, which
    makes the train step's noise and the tests' normal inputs."""

    DIGESTS = {
        1: "fc76d825184aeb38086fd04fc89480d97bc792cc29cdfffc308ebfecce989765",
        2: "a4446189d231c40aa94aff2d10c134c64886be62e2b46756dc8d8d6d7c1d795c",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_noise_digest_pinned(self, seed):
        img = ((np.arange(3 * 64 * 64, dtype=np.float32) % 256) / 255).reshape(3, 64, 64)
        out = pp.add_gaussian_noise(img, 0.02, RngStream(seed))
        assert hashlib.sha256(out.view(np.uint32).tobytes()).hexdigest() == self.DIGESTS[seed]


class TestAugment:
    def test_hflip_involution(self):
        img = RngStream(6).uniform(32).reshape(2, 4, 4)
        k, m = 0, 1
        twice = pp.apply_symmetry(pp.apply_symmetry(img, k, m), k, m)
        np.testing.assert_array_equal(twice, img)

    def test_rot90_four_times_identity(self):
        img = RngStream(7).uniform(32).reshape(2, 4, 4)
        out = img
        for _ in range(4):
            out = pp.apply_symmetry(out, 1, 0)
        np.testing.assert_array_equal(out, img)

    def test_full_group_has_eight_elements(self):
        assert len(set(pp._D4)) == len(pp._D4) == 8

    # (k, m) that augment draws for seeds 0..15; training batches depend on
    # this mapping, so reordering the symmetry table must fail here.
    SEED_SYMMETRIES = [(3, 1), (2, 0), (2, 0), (0, 0), (1, 1), (1, 1), (2, 1), (1, 1),
                       (2, 0), (2, 1), (0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 0)]

    @pytest.mark.parametrize("seed", range(16))
    def test_seed_to_symmetry_mapping_pinned(self, seed):
        img = np.arange(16.0).reshape(1, 4, 4)
        k, m = self.SEED_SYMMETRIES[seed]
        np.testing.assert_array_equal(pp.augment(img, RngStream(seed)),
                                      pp.apply_symmetry(img, k, m))

    def test_fixed_seed_reproducible(self):
        img = RngStream(8).uniform(64).reshape(1, 8, 8)
        a = pp.augment(img, RngStream(99))
        b = pp.augment(img, RngStream(99))
        np.testing.assert_array_equal(a, b)

    def test_all_symmetries_reachable(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        seen = set()
        rng = RngStream(10)
        for _ in range(200):
            seen.add(pp.augment(img, rng).tobytes())
        assert len(seen) == 8

    def test_nonsquare_rotation_rejected(self):
        img = np.zeros((1, 4, 6))
        raised = False
        for seed in range(20):
            try:
                pp.augment(img, RngStream(seed))
            except ShapeError:
                raised = True
        assert raised


class TestPipeline:
    def test_composition_always_yields_valid_composite(self):
        rng = RngStream(11)
        for h, w in [(4, 4), (5, 9), (33, 17), (64, 64)]:
            bands = {name: rng.uniform(h * w).reshape(h, w).astype(np.float32)
                     for name in pp.BAND_ORDER}
            patch = pp.BandPatch(sensor=pp.Sensor.SYNTHETIC, center_lat=10.0,
                                 center_lon=20.0, acquired=datetime.date(2018, 1, 1),
                                 **bands)
            comp = pp.preprocess_raw(patch)
            assert comp.pixels.shape == (3, 512, 512)
            assert np.isfinite(comp.pixels).all()
            assert comp.pixels.min() >= 0.0 and comp.pixels.max() <= 1.0

    @pytest.mark.parametrize("bad", ["nan", "shape"])
    def test_invalid_raw_rejected(self, bad):
        swir2 = np.full((8, 8), 0.1, dtype=np.float32)
        if bad == "nan":
            swir2[3, 5] = np.nan
        else:
            swir2 = swir2[:, :6]
        with pytest.raises(ShapeError, match="band swir2"):
            pp.preprocess_raw(make_patch(swir2=swir2))

    # Unchecked, a NaN makes a NaN composite, the clips turn an inf into a
    # finite composite, and a (1, W) band broadcasts into an (H, W) one.
    @pytest.mark.parametrize("band, bad", [
        ("red", "nan"), ("swir2", "inf"), ("red", "inf"), ("green", "-inf"),
        ("swir1", "row"), ("blue", "row")])
    @pytest.mark.parametrize("call", ["compose_patch", "normalize_sensor"])
    def test_bad_band_rejected_naming_it(self, call, band, bad):
        plane = np.full((8, 8), 0.1, dtype=np.float32)
        if bad == "row":
            plane = plane[:1]
            error = f"band {band} shape"
        else:
            plane[3, 5] = float(bad)
            plane[6, 0] = np.nan  # a later one is not the one named
            error = rf"band {band} non-finite value {bad} at index \(3, 5\)$"
        patch = make_patch(**{band: plane})
        with pytest.raises(ShapeError, match=error):
            if call == "compose_patch":
                pp.compose_patch(patch, target=(8, 8))
            else:
                pp.normalize_sensor(patch, pp.PROFILES[patch.sensor])


    def test_mis_shaped_blue_named_with_every_shape(self):
        # blue was the reference shape, so a mis-shaped blue was reported
        # as the next band, green
        patch = make_patch(blue=np.full((1, 8), 0.1))
        error = (r"^band blue shape \(1, 8\) differs from the other bands; shapes: "
                 r"blue \(1, 8\), green \(8, 8\), red \(8, 8\), "
                 r"swir1 \(8, 8\), swir2 \(8, 8\)$")
        with pytest.raises(ShapeError, match=error):
            patch.validate()

    @pytest.mark.parametrize("call", ["validate", "preprocess_raw"])
    def test_bands_must_be_planes(self, call):
        # five (2, 8, 8) bands agree in shape; only the resize refused them
        patch = make_patch(**{name: np.full((2, 8, 8), 0.1) for name in pp.BAND_ORDER})
        with pytest.raises(ShapeError, match=r"^band blue shape \(2, 8, 8\) is not \(H, W\)$"):
            patch.validate() if call == "validate" else pp.preprocess_raw(patch)


def save_planes(fmt, path, planes):
    """Write (n, H, W) planes with the writer of fmt: five bands or a composite."""
    if fmt == "vbp1":
        pp.save_band_planes(path, pp.BandPatch(
            *planes, sensor=pp.Sensor.SYNTHETIC, center_lat=0.0,
            center_lon=0.0, acquired=datetime.date(2019, 6, 22)))
    else:
        pp.save_composite(path, pp.RgbComposite(pixels=planes, provenance="x"))


def load_planes(fmt, path):
    if fmt == "vbp1":
        return pp.load_band_planes(path)[0]
    return pp.load_composite(path).pixels


def random_planes(fmt, h, w, seed):
    n = 5 if fmt == "vbp1" else 3
    return RngStream(seed).uniform(n * h * w).reshape(n, h, w).astype(np.float32)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestPlaneFiles:
    def test_band_patch_roundtrip(self, tmp_path):
        patch = make_patch(h=6, w=5, red=0.7)
        path = tmp_path / "bands.vbp"
        pp.save_band_planes(path, patch)
        planes, sensor = pp.load_band_planes(path)
        assert sensor == pp.Sensor.SYNTHETIC
        np.testing.assert_array_equal(planes[2], patch.red)
        assert planes.shape == (5, 6, 5)

    def test_composite_roundtrip(self, tmp_path):
        comp = pp.RgbComposite(
            pixels=RngStream(12).uniform(3 * 512 * 512)
            .reshape(3, 512, 512).astype(np.float32), provenance="x")
        path = tmp_path / "comp.vrc"
        pp.save_composite(path, comp)
        back = pp.load_composite(path)
        np.testing.assert_array_equal(back.pixels, comp.pixels)

    def test_truncated_file_rejected(self, tmp_path):
        patch = make_patch(h=6, w=5)
        path = tmp_path / "bands.vbp"
        pp.save_band_planes(path, patch)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated planes at offset 304$"):
            pp.load_band_planes(path)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("h, w, k", [(6, 5, 0), (6, 5, 17), (512, 512, 3 * 512 * 512 - 1)],
                             ids=["first", "inside", "512sq"])
    def test_truncation_names_the_bytes_read(self, tmp_path, fmt, h, w, k):
        # cut 2 bytes into the value after the first k: the offset is the
        # count of bytes the reader got, not a multiple of 4
        path = tmp_path / "planes.bin"
        save_planes(fmt, path, random_planes(fmt, h, w, seed=1))
        cut = 9 + 4 * k + 2
        with open(path, "r+b") as f:
            f.truncate(cut)
        with pytest.raises(ModelFormatError, match=f"truncated planes at offset {cut}$"):
            load_planes(fmt, path)

    def test_unknown_sensor_rejected(self, tmp_path):
        patch = make_patch(h=6, w=5)
        path = tmp_path / "bands.vbp"
        pp.save_band_planes(path, patch)
        data = bytearray(path.read_bytes())
        data[8] = 99  # sensor id byte
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="sensor id 99 at offset 8"):
            pp.load_band_planes(path)

    @pytest.mark.parametrize("sensor_id", [1, 255])
    def test_composite_sensor_byte_must_be_zero(self, tmp_path, sensor_id):
        path = tmp_path / "comp.vrc"
        pp.save_composite(path, pp.RgbComposite(
            pixels=np.zeros((3, 4, 4), dtype=np.float32), provenance="x"))
        data = bytearray(path.read_bytes())
        data[8] = sensor_id
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=f"sensor id {sensor_id} at offset 8"):
            pp.load_composite(path)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    def test_trailing_bytes_rejected(self, tmp_path, fmt):
        path = tmp_path / "planes.bin"
        if fmt == "vbp1":
            pp.save_band_planes(path, make_patch(h=6, w=5))
            load = pp.load_band_planes
        else:
            pp.save_composite(path, pp.RgbComposite(
                pixels=np.zeros((3, 4, 4), dtype=np.float32), provenance="x"))
            load = pp.load_composite
        size = path.stat().st_size
        with open(path, "ab") as f:
            f.write(b"\0")
        with pytest.raises(ModelFormatError, match=f"trailing bytes at offset {size}"):
            load(path)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, fmt, value):
        # written by hand: the writers refuse non-finite planes
        path = tmp_path / "planes.bin"
        if fmt == "vbp1":
            planes = np.full((5, 6, 5), 0.1, dtype="<f4")
            planes[3, 2, 3] = value  # flat index 3*30 + 2*5 + 3
            planes[4, 0, 0] = value  # a later one is not the one named
            magic, load, i = pp.PATCH_MAGIC, pp.load_band_planes, 103
        else:
            planes = np.zeros((3, 4, 4), dtype="<f4")
            planes[1, 0, 2] = value  # flat index 16 + 2
            planes[2, 3, 3] = value
            magic, load, i = pp.COMPOSITE_MAGIC, pp.load_composite, 18
        _, h, w = planes.shape
        sensor = 2 if fmt == "vbp1" else 0  # a sensor byte each reader accepts
        path.write_bytes(magic + struct.pack("<HHB", h, w, sensor) + planes.tobytes())
        with pytest.raises(ModelFormatError, match=f"non-finite value .* at offset {9 + 4 * i}$"):
            load(path)

    @pytest.mark.parametrize("fmt, sensor", [("vbp1", 99), ("vrc1", 2)])
    def test_bad_sensor_byte_named_before_the_payload(self, tmp_path, fmt, sensor):
        # the header is checked before the payload is read: the NaN is not named
        path = tmp_path / "planes.bin"
        n, magic, load = ((5, pp.PATCH_MAGIC, pp.load_band_planes) if fmt == "vbp1"
                          else (3, pp.COMPOSITE_MAGIC, pp.load_composite))
        planes = np.full((n, 4, 4), np.nan, dtype="<f4")
        path.write_bytes(magic + struct.pack("<HHB", 4, 4, sensor) + planes.tobytes())
        with pytest.raises(ModelFormatError, match=f"sensor id {sensor} at offset 8, expected"):
            load(path)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("h, w", [(0, 0), (0, 3), (3, 0)])
    def test_empty_planes_rejected(self, tmp_path, fmt, h, w):
        path = tmp_path / "planes.bin"
        magic, load = ((pp.PATCH_MAGIC, pp.load_band_planes) if fmt == "vbp1"
                       else (pp.COMPOSITE_MAGIC, pp.load_composite))
        path.write_bytes(magic + struct.pack("<HHB", h, w, 2))
        with pytest.raises(ModelFormatError, match=f"empty {h}x{w} planes at offset 4"):
            load(path)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("what, error", [("missing", "No such file or directory"),
                                             ("directory", "Is a directory")])
    def test_unreadable_path_rejected(self, tmp_path, fmt, what, error):
        # both were a bare OSError (FileNotFoundError, IsADirectoryError)
        path = tmp_path / "planes.bin"
        if what == "directory":
            path.mkdir()
        with pytest.raises(ModelFormatError, match=f"planes.bin: cannot read: {error}$"):
            load_planes(fmt, path)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    def test_size_checked_before_the_planes_are_allocated(self, tmp_path, fmt):
        # a bare header claiming 65535x65535 planes: 80 GiB as VBP1, 48 GiB
        # as VRC1, which np.empty refused with a MemoryError
        path = tmp_path / "planes.bin"
        magic, load = ((pp.PATCH_MAGIC, pp.load_band_planes) if fmt == "vbp1"
                       else (pp.COMPOSITE_MAGIC, pp.load_composite))
        path.write_bytes(magic + struct.pack("<HHB", 0xFFFF, 0xFFFF, 0))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="truncated planes at offset 9$"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("shape, error", [
        ((4,), r"expected \(\d, H, W\) planes, got \(\d, 4\)"),
        ((4, 4, 1), r"expected \(\d, H, W\) planes, got \(\d, 4, 4, 1\)"),
        ((3, 0), "empty 3x0 planes"),
        ((1, 65536), "1x65536 planes exceed 65535"),
        ((65536, 1), "65536x1 planes exceed 65535"),
        ((4, 4), r"non-finite value nan at index \(1, 0, 2\)"),
    ], ids=["1-d", "4-d", "empty", "wide", "tall", "nan"])
    def test_writer_refuses_what_reader_refuses(self, tmp_path, fmt, shape, error):
        planes = np.zeros((5 if fmt == "vbp1" else 3,) + shape, dtype=np.float32)
        if error.startswith("non-finite"):
            planes[1, 0, 2] = np.nan
            planes[2, 3, 3] = np.inf  # a later one is not the one named
        path = tmp_path / "planes.bin"
        with pytest.raises(ShapeError, match=f"planes.bin: {error}$"):
            save_planes(fmt, path, planes)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("value, error", [
        (1e39, r"value 1e\+39 at index \(1, 0, 2\) overflows float32"),
        (-1e39, r"value -1e\+39 at index \(1, 0, 2\) overflows float32"),
        (2.0 ** 128 - 2.0 ** 103,  # the tie, which rounds to inf
         r"value 3\.4028235677973366e\+38 at index \(1, 0, 2\) overflows float32"),
    ], ids=["big", "-big", "tie"])
    def test_writer_refuses_float64_values_past_float32(self, tmp_path, fmt, value, error):
        # named as given: cast to float32 first, 1e39 would be an inf and a
        # numpy overflow warning
        planes = np.zeros((5 if fmt == "vbp1" else 3, 4, 4))
        planes[1, 0, 2] = value
        planes[2, 3, 3] = np.inf  # a later one is not the one named
        path = tmp_path / "planes.bin"
        with pytest.raises(ShapeError, match=f"planes.bin: {error}$"):
            save_planes(fmt, path, planes)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    def test_writer_keeps_float64_values_that_round_to_float32_max(self, tmp_path, fmt):
        # 2**128 - 2**103 is the least magnitude that rounds to inf
        top = np.nextafter(2.0 ** 128 - 2.0 ** 103, 0.0)
        planes = np.zeros((5 if fmt == "vbp1" else 3, 4, 4))
        planes[1, 0, 2], planes[2, 3, 3] = top, -top
        path = tmp_path / "planes.bin"
        save_planes(fmt, path, planes)
        back = load_planes(fmt, path)
        assert back[1, 0, 2] == np.finfo(np.float32).max == -back[2, 3, 3]

    def test_band_planes_of_unequal_shape_refused(self, tmp_path):
        bands = [np.zeros((4, 4), dtype=np.float32) for _ in range(5)]
        bands[3] = np.zeros((4, 5), dtype=np.float32)
        path = tmp_path / "bands.vbp"
        with pytest.raises(ShapeError, match=r"band swir1 shape \(4, 5\) != \(4, 4\)$"):
            pp.save_band_planes(path, pp.BandPatch(
                *bands, sensor=pp.Sensor.SYNTHETIC, center_lat=0.0,
                center_lon=0.0, acquired=datetime.date(2019, 6, 22)))
        assert not path.exists()

    def test_composite_of_wrong_plane_count_refused(self, tmp_path):
        path = tmp_path / "comp.vrc"
        with pytest.raises(ShapeError, match=r"expected \(3, H, W\) planes, got \(2, 4, 4\)"):
            pp.save_composite(path, pp.RgbComposite(
                pixels=np.zeros((2, 4, 4), dtype=np.float32), provenance="x"))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bands.vbp"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ModelFormatError, match="magic"):
            pp.load_band_planes(path)


class TestPlaneFileRewrite:
    """A write makes a new file at the path: nothing at the path is
    truncated or written through, and a refused write leaves it alone."""

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("bad", ["nan", "shape"])
    def test_refused_write_keeps_the_old_file(self, tmp_path, fmt, bad):
        path = tmp_path / "planes.bin"
        old = random_planes(fmt, 6, 5, seed=2)
        save_planes(fmt, path, old)
        ino = path.stat().st_ino
        new = random_planes(fmt, 6, 5, seed=3)
        if bad == "nan":
            new[1, 2, 3] = np.nan
        else:
            new = new[..., None]
        with pytest.raises(ShapeError, match="non-finite|expected"):
            save_planes(fmt, path, new)
        assert path.stat().st_ino == ino
        assert_same_bits(load_planes(fmt, path), old)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    def test_rewrite_with_smaller_planes(self, tmp_path, fmt):
        path = tmp_path / "planes.bin"
        save_planes(fmt, path, random_planes(fmt, 6, 5, seed=4))
        small = random_planes(fmt, 3, 4, seed=5)
        save_planes(fmt, path, small)
        assert_same_bits(load_planes(fmt, path), small)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    def test_open_reader_keeps_the_old_bytes(self, tmp_path, fmt):
        path = tmp_path / "planes.bin"
        save_planes(fmt, path, random_planes(fmt, 64, 64, seed=6))
        old_bytes = path.read_bytes()
        new = random_planes(fmt, 64, 64, seed=7)
        with open(path, "rb") as f:
            head = f.read(100)
            save_planes(fmt, path, new)
            assert head + f.read() == old_bytes
        assert_same_bits(load_planes(fmt, path), new)

    @pytest.mark.parametrize("fmt", ["vbp1", "vrc1"])
    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    def test_link_at_path_is_replaced(self, tmp_path, fmt, link):
        target = tmp_path / "target.bin"
        save_planes(fmt, target, random_planes(fmt, 6, 5, seed=8))
        target_bytes = target.read_bytes()
        path = tmp_path / "planes.bin"
        if link == "symlink":
            path.symlink_to(target)
        else:
            path.hardlink_to(target)
        new = random_planes(fmt, 6, 5, seed=9)
        save_planes(fmt, path, new)
        assert not path.is_symlink()
        assert path.stat().st_ino != target.stat().st_ino
        assert_same_bits(load_planes(fmt, path), new)
        assert target.read_bytes() == target_bytes
