import json
import os

import numpy as np
import pytest

from volcnn import dataset as ds
from volcnn.errors import CatalogError, InvalidParameterError
from volcnn.tensor import RngStream

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
        assert len(manifest) == 20
        for label in (ds.LABEL_ERUPTION, ds.LABEL_NO_ERUPTION):
            counts = {name: sum(1 for s in manifest.split(name) if s.label == label)
                      for name in ("train", "val", "test")}
            # floor(0.7 * 10), floor(0.1 * 10), remainder
            assert counts == {"train": 7, "val": 1, "test": 2}

    def test_split_floors_each_class(self, synth):
        root, _ = synth
        manifest = ds.build_manifest(str(root), split_fracs=(0.5, 0.25, 0.25), seed=3)
        for label in (ds.LABEL_ERUPTION, ds.LABEL_NO_ERUPTION):
            got = [s.split for s in manifest.samples if s.label == label]
            # floor(0.5 * 10), floor(0.25 * 10), remainder
            assert [got.count(n) for n in ("train", "val", "test")] == [5, 2, 3]

    def test_save_load_round_trip(self, synth, tmp_path):
        _, manifest = synth
        path = tmp_path / ds.MANIFEST_FILENAME
        manifest.save(path)
        assert ds.DatasetManifest.load(path).samples == manifest.samples

    @pytest.mark.parametrize("row, error", [
        ('{"path": "a", "label": 1,', "^line 3: malformed JSON"),
        ('{"path": "a", "label": 1, "split": "train"}', "^line 3: missing key 'subclass'"),
        ('{"path": "a", "label": "1", "subclass": "x", "split": "train"}',
         "^line 3: label must be 0 or 1"),
        ('{"path": "a", "label": 0.5, "subclass": "x", "split": "train"}',
         "^line 3: label must be 0 or 1"),
        ('{"path": "b", "label": 1, "subclass": "x", "split": "train"}',
         "^line 3: duplicate path 'b'"),
        ('["a", 1, "x", "train"]', "^line 3: expected a JSON object"),
        ('{"path": "a", "label": 1, "subclass": "x", "split": "holdout"}',
         "^line 3: bad split 'holdout'"),
        ('{"path": 7, "label": 1, "subclass": "x", "split": "train"}',
         "^line 3: path must be a string"),
        ('{"path": "a", "label": 1, "subclass": 5, "split": "train"}',
         "^line 3: subclass must be a string"),
        ('{"path": "\xe9", "label": 1, "subclass": "x", "split": "train"}',
         "^line 3: malformed JSON"),
    ], ids=["json", "missing-key", "label-string", "label-float", "duplicate-path",
            "not-object", "bad-split", "path-number", "subclass-number", "not-utf8"])
    def test_load_error_names_its_line(self, tmp_path, row, error):
        good = '{"path": "b", "label": 0, "subclass": "clear", "split": "val"}'
        path = tmp_path / ds.MANIFEST_FILENAME
        # line 2 is blank and still counts; latin-1 writes the not-utf8 row's
        # e-acute as the one byte 0xe9, which is not UTF-8
        path.write_bytes((good + "\n\n" + row + "\n").encode("latin-1"))
        with pytest.raises(CatalogError, match=error):
            ds.DatasetManifest.load(path)


class TestSynthGenerate:
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
        ("[19.4, -155.3]", "expected a JSON object"),
        (_meta_text(lon=None), "missing key 'lon'"),
        (_meta_text(label=None), "missing key 'label'"),
        (_meta_text(label="1"), "label must be 0 or 1"),
        (_meta_text(label=2), "label must be 0 or 1"),
        (_meta_text(label=True), "label must be 0 or 1"),
        (_meta_text(date="2018-13-03"), "date must be an ISO date"),
        (_meta_text(date=20180503), "date must be an ISO date"),
        (_meta_text(lat="19.4"), "lat must be a finite number"),
        (_meta_text(lon=float("nan")), "lon must be a finite number"),
        (_meta_text(subclass=5), "subclass must be a string"),
        (_meta_text(subclass=None), "missing key 'subclass'"),
    ], ids=["no-file", "meta-is-directory", "json", "not-object", "missing-lon",
            "missing-label", "label-string", "label-two", "label-bool", "bad-month",
            "date-number", "lat-string", "lon-nan", "subclass-number",
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
            with open(meta_path, "w") as f:
                f.write(text)
        with pytest.raises(CatalogError, match=r"meta\.json: " + error):
            if reader == "load_sample":
                ds.load_sample(sample)
            else:
                ds.build_manifest(str(tmp_path))


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
