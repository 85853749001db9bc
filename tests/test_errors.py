import inspect
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volcnn
from volcnn import dataset as ds
from volcnn import errors
from volcnn import preprocess as pp
from volcnn.tensor import RngStream


def test_every_error_class_is_raised():
    """Each VolcError subclass has a `raise Name(` somewhere in the package."""
    src = pathlib.Path(volcnn.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
    classes = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.VolcError) and cls is not errors.VolcError]
    assert classes
    assert [name for name in classes if f"raise {name}(" not in text] == []


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Per file kind the package writes: (path, its bytes, the read that
    reads it, the error a cut file raises).  meta.json is read through
    load_sample, which reads the sample's bands.vbp first."""
    root = tmp_path_factory.mktemp("written")
    sample = ds.synth_generate(1, seed=1, out_dir=str(root), size=16).samples[0]
    bands, meta = (pathlib.Path(sample.path, name)
                   for name in (ds.PATCH_FILENAME, ds.META_FILENAME))
    composite = root / "composite.vrc"
    pixels = RngStream(2).uniform(3 * 8 * 8).reshape(3, 8, 8).astype(np.float32)
    pp.save_composite(composite, pp.RgbComposite(pixels=pixels, provenance=""))
    kinds = {"vbp1": (bands, lambda: pp.load_band_planes(bands), errors.ModelFormatError),
             "vrc1": (composite, lambda: pp.load_composite(composite),
                      errors.ModelFormatError),
             "meta": (meta, lambda: ds.load_sample(sample), errors.CatalogError)}
    return {kind: (path, path.read_bytes(), read, error)
            for kind, (path, read, error) in kinds.items()}


def _read_damaged(path, original, read, damaged):
    """read() with damaged in place of the file at path, which is restored."""
    path.write_bytes(damaged)
    try:
        return read()
    finally:
        path.write_bytes(original)


class TestDamagedFiles:
    """Every cut of a file the package wrote is refused with the reader's
    error, and a file with any one byte overwritten reads back or is
    refused with a VolcError subclass, never another exception."""

    kinds = st.sampled_from(["vbp1", "vrc1", "meta"])

    @settings(max_examples=150, deadline=None)
    @given(kind=kinds, data=st.data())
    def test_truncated_file_refused(self, written, kind, data):
        path, original, read, error = written[kind]
        # meta.json ends in a newline, which JSON ignores
        cut = data.draw(st.integers(0, len(original.rstrip()) - 1), label="cut")
        with pytest.raises(error):
            _read_damaged(path, original, read, original[:cut])

    @settings(max_examples=300, deadline=None)
    @given(kind=kinds, data=st.data())
    def test_overwritten_byte_reads_back_or_is_refused(self, written, kind, data):
        path, original, read, _ = written[kind]
        at = data.draw(st.integers(0, len(original) - 1), label="at")
        value = data.draw(st.integers(0, 255), label="value")
        try:
            _read_damaged(path, original, read,
                          original[:at] + bytes([value]) + original[at + 1:])
        except errors.VolcError:
            pass
