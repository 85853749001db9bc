import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from volcnn import dataset as ds
from volcnn.errors import (CatalogError, InvalidParameterError, MissingClassError,
                           ModelFormatError)
from volcnn.tensor import RngStream

from oracles import smooth_field_reference

SIZE = 32  # small patches keep the synthetic tests fast

@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest = ds.synth_generate(10, seed=7, out_dir=str(out), size=SIZE)
    return out, manifest


def _tree_bytes(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


class TestManifest:
    def test_default_split_is_stratified(self, synth):
        _, manifest = synth
        assert len(manifest.samples) == 20
        for label in (ds.LABEL_ERUPTION, ds.LABEL_NO_ERUPTION):
            counts = {name: sum(1 for s in manifest.split(name) if s.label == label)
                      for name in ("train", "val", "test")}
            # floor(0.7 * 10), floor(0.1 * 10), remainder
            assert counts == {"train": 7, "val": 1, "test": 2}

    def test_split_floors_each_class(self, tmp_path):
        manifest = ds.synth_generate(13, seed=3, out_dir=str(tmp_path), size=SIZE)
        for label in (ds.LABEL_ERUPTION, ds.LABEL_NO_ERUPTION):
            got = [s.split for s in manifest.samples if s.label == label]
            # floor(0.7 * 13) = 9, floor(0.1 * 13) = 1, the remainder 3
            assert [got.count(n) for n in ("train", "val", "test")] == [9, 1, 3]

    @pytest.mark.parametrize("n, want", [(2, [1, 0, 1]), (3, [2, 0, 1]), (4, [2, 1, 1])])
    def test_small_classes_keep_one_val_and_one_test(self, tmp_path, n, want):
        # val is at least one once train, floor(0.7 * n), leaves two
        manifest = ds.synth_generate(n, seed=3, out_dir=str(tmp_path), size=SIZE)
        for label in (ds.LABEL_ERUPTION, ds.LABEL_NO_ERUPTION):
            got = [s.split for s in manifest.samples if s.label == label]
            assert [got.count(name) for name in ("train", "val", "test")] == want

    def test_split_is_a_function_of_root_and_seed(self, synth):
        root, _ = synth
        def rows(seed):
            return [(s.path, s.label, s.subclass, s.split)
                    for s in ds.build_manifest(str(root), seed=seed).samples]
        assert rows(7) == rows(7)
        assert rows(8) != rows(7)
        assert [r[:3] for r in rows(8)] == [r[:3] for r in rows(7)]


class TestSmoothField:
    # the [lo, hi] ranges the generators ask for
    RANGES = [(0.03, 0.22), (0.0, 1.0), (-0.4, 1.2), (0.6, 0.9), (0.02, 0.18)]

    @pytest.mark.parametrize("h, w", [(1, 1), (7, 5), (5, 7), (32, 48), (256, 256)])
    def test_same_bits_as_per_pixel_cosines(self, h, w):
        for seed in range(24):
            lo, hi = self.RANGES[seed % len(self.RANGES)]
            want = smooth_field_reference(RngStream(seed).uniform(16), h, w, lo, hi)
            got = ds._smooth_field(RngStream(seed), h, w, lo, hi)
            assert got.dtype == np.float32 and got.shape == (h, w)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32),
                                          err_msg=f"seed {seed}")


class TestSynthGenerate:
    # SHA-256 over the sorted (path, bytes) of synth_generate(2, seed=1,
    # size=32), computed with the per-pixel cosine fields
    DIGEST = "748a913f170725e143ffde96f633e19b419189de1fb36c738827ad043e3626e7"

    def test_files_pinned(self, tmp_path):
        ds.synth_generate(2, seed=1, out_dir=str(tmp_path), size=SIZE)
        files = _tree_bytes(tmp_path)
        h = hashlib.sha256()
        for rel in sorted(files):
            h.update(rel.encode() + b"\0" + files[rel])
        assert len(files) == 8
        assert h.hexdigest() == self.DIGEST

    def test_same_seed_gives_byte_identical_files(self, synth, tmp_path):
        root, _ = synth
        ds.synth_generate(10, seed=7, out_dir=str(tmp_path / "again"), size=SIZE)
        first = _tree_bytes(root)
        assert len(first) == 40  # bands.vbp + meta.json per sample
        assert _tree_bytes(tmp_path / "again") == first

    def test_other_seed_differs(self, synth, tmp_path):
        root, _ = synth
        ds.synth_generate(10, seed=8, out_dir=str(tmp_path / "other"), size=SIZE)
        assert _tree_bytes(tmp_path / "other") != _tree_bytes(root)

    def test_eruptions_hot_and_clouds_cold_in_swir2(self, synth):
        _, manifest = synth
        seen = set()
        for sample in manifest.samples:
            patch, label, subclass = ds.load_sample(sample)
            assert patch.swir2.shape == (SIZE, SIZE)
            seen.add(subclass)
            if subclass == ds.SUBCLASS_ERUPTION:
                assert label == ds.LABEL_ERUPTION
                assert patch.swir2.max() >= 0.6
            else:
                assert label == ds.LABEL_NO_ERUPTION
            if subclass == "cloudy":
                # planes are stored as float32, so the ceiling is float32(0.2)
                assert patch.swir2.max() <= np.float32(0.2)
        assert seen == {ds.SUBCLASS_ERUPTION, *ds.SUBCLASSES_NEGATIVE}



def _meta_text(**change):
    meta = {"date": "2018-05-03", "label": 1, "lat": 19.4, "lon": -155.3,
            "subclass": "eruption"}
    meta.update(change)
    return json.dumps({k: v for k, v in meta.items() if v is not None})


class TestSampleMeta:
    @pytest.mark.parametrize("text, error", [
        (None, "missing file"),
        (IsADirectoryError, "cannot read: Is a directory"),
        ('{"lat": 19.4,', "malformed JSON"),
        # json.loads raised RecursionError on this
        ("[" * 100000 + "]" * 100000, "malformed JSON"),
        (b'{"subclass": "\xe9"}', "malformed JSON"),
        ("[19.4, -155.3]", "expected a JSON object"),
        (_meta_text(lon=None), "missing key 'lon'"),
        (_meta_text(label=None), "missing key 'label'"),
        (_meta_text(label="1"), "label must be 0 or 1"),
        (_meta_text(label=2), "label must be 0 or 1"),
        (_meta_text(label=True), "label must be 0 or 1"),
        (_meta_text(label=0.5), "label must be 0 or 1"),
        (_meta_text(date="2018-13-03"), "date must be an ISO date"),
        (_meta_text(date=20180503), "date must be an ISO date"),
        # Python 3.11's date.fromisoformat takes the first two, 3.10's does not
        (_meta_text(date="20180503"), "date must be an ISO date"),
        (_meta_text(date="2018-W18-4"), "date must be an ISO date"),
        (_meta_text(date="2018-5-3"), "date must be an ISO date"),
        (_meta_text(lat="19.4"), "lat must be a finite number"),
        (_meta_text(lon=float("nan")), "lon must be a finite number"),
        (_meta_text(subclass=5), "subclass must be a string"),
        (_meta_text(subclass=None), "missing key 'subclass'"),
    ], ids=["no-file", "meta-is-directory", "json", "json-deep", "not-utf8", "not-object",
            "missing-lon", "missing-label", "label-string", "label-two", "label-bool",
            "label-float", "bad-month", "date-number", "date-basic", "date-week",
            "date-unpadded", "lat-string", "lon-nan", "subclass-number",
            "missing-subclass"])
    @pytest.mark.parametrize("reader", ["load_sample", "build_manifest"])
    def test_malformed_meta_names_file_and_key(self, tmp_path, text, error, reader):
        manifest = ds.synth_generate(1, seed=1, out_dir=str(tmp_path), size=SIZE)
        sample = manifest.samples[0]
        meta_path = os.path.join(sample.path, ds.META_FILENAME)
        if text is None:
            os.remove(meta_path)
        elif text is IsADirectoryError:
            os.remove(meta_path)
            os.mkdir(meta_path)
        else:
            # bytes go through as they are: 0xe9 alone is not UTF-8
            with open(meta_path, "wb") as f:
                f.write(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(CatalogError, match=r"meta\.json: " + error):
            if reader == "load_sample":
                ds.load_sample(sample)
            else:
                ds.build_manifest(str(tmp_path))


def test_unreadable_band_file_names_it(tmp_path):
    # build_manifest only checks that bands.vbp exists; a directory there
    # raised a bare IsADirectoryError from load_sample
    sample = ds.synth_generate(1, seed=1, out_dir=str(tmp_path), size=SIZE).samples[0]
    path = os.path.join(sample.path, ds.PATCH_FILENAME)
    os.remove(path)
    os.mkdir(path)
    with pytest.raises(ModelFormatError, match=r"bands\.vbp: cannot read: Is a directory$"):
        ds.load_sample(sample)


class TestMissingClass:
    def test_manifest_of_one_class_rejected(self, tmp_path):
        manifest = ds.synth_generate(2, seed=1, out_dir=str(tmp_path), size=SIZE)
        for s in manifest.samples:
            if s.label == ds.LABEL_NO_ERUPTION:
                shutil.rmtree(s.path)
        with pytest.raises(MissingClassError, match=r"need both classes .* labels \[1\]"):
            ds.build_manifest(str(tmp_path))

    def test_balanced_batches_of_one_class_rejected(self, synth):
        _, manifest = synth
        train = [s for s in manifest.split("train") if s.label == ds.LABEL_ERUPTION]
        with pytest.raises(MissingClassError, match="both classes in train"):
            ds.balanced_batches(train, 4, 8, RngStream(0))


class TestBalancedBatches:
    def test_epoch_of_one_draw_rejected(self, synth):
        _, manifest = synth
        with pytest.raises(InvalidParameterError, match="epoch_len"):
            ds.balanced_batches(manifest.split("train"), 4, 1, RngStream(0))

    def test_batches_cover_epoch_without_a_batch_of_one(self, synth):
        _, manifest = synth
        train = manifest.split("train")
        for epoch_len in (2, 5, 9):
            plan = ds.balanced_batches(train, 4, epoch_len, RngStream(epoch_len))
            assert sum(len(b) for b in plan.batches) == epoch_len
            assert min(len(b) for b in plan.batches) >= 2
