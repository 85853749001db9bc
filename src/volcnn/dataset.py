"""Labeled samples, derived splits, balanced batches, synthetic data.

A sample on disk is one directory holding ``bands.vbp`` (five-band flat
binary, see preprocess) and ``meta.json`` (lat, lon, ISO date, label,
subclass).  ``meta.json`` is the one home of a sample's label: the
train/val/test split is not stored but derived from the labels and a seed
each time a directory is read.

The synthetic generator stands in for the downloaded satellite imagery at
desk scale.  It encodes the one physically grounded separator of the real
task: eruptions are SWIR-hot (a compact connected region with swir2 >=
0.6), clouds are bright in RGB but SWIR-cold (swir2 <= 0.2 everywhere).
Everything else (cities, mountains, quiet volcanoes, random fields) stays
below the hot-spot range, so the learning problem is real rather than a
label leak.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import preprocess as pp
from .errors import CatalogError, InvalidParameterError, MissingClassError
from .tensor import RngStream

LABEL_ERUPTION = 1
LABEL_NO_ERUPTION = 0

SUBCLASSES_NEGATIVE = ("volcano_quiet", "city", "mountain", "cloudy", "random")
SUBCLASS_ERUPTION = "eruption"

PATCH_FILENAME = "bands.vbp"
META_FILENAME = "meta.json"

SYNTH_PATCH_SIZE = 256
# cosine modes per smooth field, and the width of the terrain's uniform speckle
_FIELD_MODES = 4
_SPECKLE_AMP = 0.01

# train, val, test: floors of the first two per class (val at least one
# when two or more are left), the remainder is test
SPLIT_FRACS = (0.7, 0.1, 0.2)


# ---------------------------------------------------------------------------
# derived split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    path: str
    label: int
    subclass: str
    split: str


class DatasetManifest:
    """The samples under one directory, each with its derived split."""

    def __init__(self, samples):
        self.samples = list(samples)

    def split(self, name):
        return [s for s in self.samples if s.split == name]


def _shuffled(rng: RngStream, items):
    arr = list(items)
    for i in range(len(arr) - 1, 0, -1):
        j = int(rng.integers(1, i + 1)[0])
        arr[i], arr[j] = arr[j], arr[i]
    return arr


def build_manifest(root, seed=0) -> DatasetManifest:
    """Deterministic stratified split over the sample directories under root.

    Per label: floor(0.7 * n) train and floor(0.1 * n) val (SPLIT_FRACS),
    the remainder test, over a seeded shuffle of the path-sorted samples.
    Val gets at least one sample whenever train leaves two or more, so
    below 10 per class val is not empty and test keeps one (4 per class
    split 2/1/1).  The same (root, seed) always gives the same split.
    A root that cannot be listed raises CatalogError naming it.
    """
    ft, fv, _ = SPLIT_FRACS
    try:
        names = sorted(os.listdir(root))
    except OSError as e:
        raise CatalogError(f"{root}: cannot read: {e.strerror}") from None
    entries = []
    for name in names:
        d = os.path.join(root, name)
        if not os.path.isdir(d) or not os.path.exists(os.path.join(d, PATCH_FILENAME)):
            continue
        *_, label, subclass = _read_meta(d)
        entries.append((d, label, subclass))
    by_label = {}
    for i, (path, label, sub) in enumerate(entries):
        by_label.setdefault(label, []).append(i)
    if LABEL_ERUPTION not in by_label or LABEL_NO_ERUPTION not in by_label:
        raise MissingClassError(
            f"need both classes under {root}, got labels {sorted(by_label)}")
    rng = RngStream(seed)
    split_of = {}
    for label, idxs in sorted(by_label.items()):
        order = _shuffled(rng.fork(f"split/{label}"), idxs)
        n = len(order)
        n_train = math.floor(ft * n)
        n_val = math.floor(fv * n)
        if n - n_train >= 2:
            n_val = max(1, n_val)
        for k, i in enumerate(order):
            split_of[i] = ("train" if k < n_train
                           else "val" if k < n_train + n_val else "test")
    samples = [Sample(path, label, sub, split_of[i])
               for i, (path, label, sub) in enumerate(entries)]
    return DatasetManifest(samples)


# ---------------------------------------------------------------------------
# balanced oversampling batches
# ---------------------------------------------------------------------------


@dataclass
class BatchPlan:
    """Precomputed epoch of batches; indices refer to the train-split list."""
    batches: list


def balanced_batches(train_samples, batch_size, epoch_len, rng: RngStream) -> BatchPlan:
    """Class-balanced draws with replacement: coin-flip the class, then a
    uniform pick within it, so minority samples repeat (oversampling)."""
    if batch_size < 2:
        raise InvalidParameterError("batch_size must be >= 2")
    if epoch_len < 2:
        raise InvalidParameterError(
            "epoch_len must be >= 2: one draw makes a batch of one")
    pos = [i for i, s in enumerate(train_samples) if s.label == LABEL_ERUPTION]
    neg = [i for i, s in enumerate(train_samples) if s.label == LABEL_NO_ERUPTION]
    if not pos or not neg:
        raise MissingClassError("balanced sampling needs both classes in train")
    u = rng.uniform(2 * epoch_len)
    draws = []
    for k in range(epoch_len):
        group = pos if u[2 * k] < 0.5 else neg
        draws.append(group[min(int(u[2 * k + 1] * len(group)), len(group) - 1)])
    batches = [draws[i:i + batch_size] for i in range(0, epoch_len, batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2].extend(batches.pop())  # avoid a degenerate batch of one
    return BatchPlan(batches=batches)


# ---------------------------------------------------------------------------
# synthetic patch generator
# ---------------------------------------------------------------------------


def _grid(h, w):
    """Row coordinates y / h as (h, 1) and column coordinates x / w as (1, w)."""
    y, x = np.ogrid[0:h, 0:w]
    return y / h, x / w


def _smooth_field(rng, h, w, lo, hi):
    """Sum of _FIELD_MODES random low-frequency cosines rescaled into [lo, hi].

    Mode m is amp * cos(A + B) with A = 2*pi*ky*y + phase and
    B = 2*pi*kx*x, for y = row / h and x = col / w.  Since
    cos(A + B) = cos A * cos B - sin A * sin B, the sum over modes is one
    float64 product U @ V.T: U is (h, 2 * modes) with columns amp * cos A
    and -amp * sin A, V is (w, 2 * modes) with columns cos B and sin B.
    That is 2 * modes * (h + w) trig calls instead of modes * h * w.  The
    float64 sums differ from the per-pixel cosines (tests/oracles.py) in
    their last bits only; after the rescale and the float32 cast the two
    fields have matched bit for bit on every seed and shape tested.
    """
    yy, xx = _grid(h, w)
    params = rng.uniform(4 * _FIELD_MODES).reshape(_FIELD_MODES, 4)
    ky = 0.5 + 3.0 * params[:, 0]
    kx = 0.5 + 3.0 * params[:, 1]
    phase = 2 * np.pi * params[:, 2]
    amp = 0.5 + params[:, 3]
    a = 2 * np.pi * ky * yy + phase
    b = 2 * np.pi * kx * xx.T
    u = np.concatenate([amp * np.cos(a), -amp * np.sin(a)], axis=1)
    v = np.concatenate([np.cos(b), np.sin(b)], axis=1)
    field = u @ v.T
    fmin, fmax = field.min(), field.max()
    field = (field - fmin) / max(fmax - fmin, 1e-9)
    return (lo + (hi - lo) * field).astype(np.float32)


def _speckle(rng, h, w):
    return (_SPECKLE_AMP * (rng.uniform(h * w).reshape(h, w) - 0.5)).astype(np.float32)


def _disk(rng, h, w, r_lo, r_hi, value_lo, value_hi):
    """Compact connected hot spot: a filled disk with a Gaussian skirt."""
    u = rng.uniform(5)
    cy = (0.25 + 0.5 * u[0]) * h
    cx = (0.25 + 0.5 * u[1]) * w
    radius = r_lo + (r_hi - r_lo) * u[2]
    peak = value_lo + (value_hi - value_lo) * u[3]
    y, x = np.ogrid[0:h, 0:w]
    d = np.sqrt((y - cy) ** 2 + (x - cx) ** 2)
    skirt = np.exp(-0.5 * ((d - radius) / (radius * 0.5)) ** 2)
    field = np.where(d <= radius, 1.0, skirt) * peak
    return field.astype(np.float32)


def _terrain(rng, h, w):
    bands = {
        "blue": _smooth_field(rng.fork("b"), h, w, 0.03, 0.22),
        "green": _smooth_field(rng.fork("g"), h, w, 0.05, 0.28),
        "red": _smooth_field(rng.fork("r"), h, w, 0.05, 0.30),
        "swir1": _smooth_field(rng.fork("s1"), h, w, 0.05, 0.42),
        "swir2": _smooth_field(rng.fork("s2"), h, w, 0.05, 0.38),
    }
    for name in bands:
        bands[name] = np.clip(bands[name] + _speckle(rng.fork("n" + name), h, w),
                              0.0, 1.0)
    return bands


def _gen_eruption(rng, h, w):
    bands = _terrain(rng, h, w)
    hot = _disk(rng.fork("hot"), h, w, r_lo=10, r_hi=22,
                value_lo=0.7, value_hi=1.0)
    bands["swir2"] = np.maximum(bands["swir2"], hot)
    bands["swir1"] = np.maximum(bands["swir1"], (0.8 * hot).astype(np.float32))
    bands["red"] = np.clip(bands["red"] + 0.25 * (hot > 0.5 * hot.max()), 0, 1)
    if rng.fork("cloud?").uniform(1)[0] < 0.4:
        cloud = _smooth_field(rng.fork("cloud"), h, w, 0.0, 1.0) ** 3
        for name in ("blue", "green", "red"):
            bands[name] = np.clip(
                bands[name] * (1 - cloud) + cloud * 0.7, 0, 1).astype(np.float32)
    return bands


def _gen_volcano_quiet(rng, h, w):
    bands = _terrain(rng, h, w)
    cone = _disk(rng.fork("cone"), h, w, r_lo=30, r_hi=70,
                 value_lo=0.15, value_hi=0.3)
    for name in ("red", "green"):
        bands[name] = np.clip(bands[name] + cone, 0, 1)
    bands["swir2"] = np.clip(bands["swir2"], 0, 0.45)
    return bands


def _gen_city(rng, h, w):
    bands = _terrain(rng, h, w)
    u = rng.fork("grid").uniform(2)
    period = 12 + int(12 * u[0])
    street = 2 + int(2 * u[1])
    y, x = np.ogrid[0:h, 0:w]
    blocks = ((y % period >= street) & (x % period >= street)).astype(np.float32)
    bright = _smooth_field(rng.fork("bright"), h, w, 0.15, 0.45)
    for name in ("blue", "green", "red"):
        bands[name] = np.clip(bands[name] + blocks * bright, 0, 1)
    bands["swir2"] = np.clip(bands["swir2"], 0, 0.45)
    return bands


def _gen_mountain(rng, h, w):
    bands = _terrain(rng, h, w)
    u = rng.fork("ridge").uniform(3)
    yy, xx = _grid(h, w)
    angle = np.pi * u[0]
    freq = 4.0 + 6.0 * u[1]
    ridges = np.abs(np.cos(2 * np.pi * freq *
                           (np.cos(angle) * yy + np.sin(angle) * xx)
                           + 4.0 * _smooth_field(rng.fork("warp"), h, w, 0, 1)))
    ridges = (ridges ** 0.7 * 0.35).astype(np.float32)
    for name in ("blue", "green", "red"):
        bands[name] = np.clip(bands[name] + ridges, 0, 1)
    bands["swir2"] = np.clip(bands["swir2"], 0, 0.45)
    return bands


def _gen_cloudy(rng, h, w):
    bands = _terrain(rng, h, w)
    cloud = np.clip(_smooth_field(rng.fork("cloud"), h, w, -0.4, 1.2), 0, 1)
    bright = _smooth_field(rng.fork("bright"), h, w, 0.6, 0.9)
    for name in ("blue", "green", "red"):
        bands[name] = np.clip(bands[name] * (1 - cloud) + cloud * bright,
                              0, 1).astype(np.float32)
    # clouds are cold in SWIR: hard ceiling well under the eruption range
    bands["swir1"] = np.clip(_smooth_field(rng.fork("cs1"), h, w, 0.02, 0.25), 0, 0.3)
    bands["swir2"] = np.clip(_smooth_field(rng.fork("cs2"), h, w, 0.02, 0.18), 0, 0.2)
    return bands


def _gen_random(rng, h, w):
    r = rng.fork("noise")
    def band(lo, hi):
        return (lo + (hi - lo) * r.uniform(h * w).reshape(h, w)).astype(np.float32)
    return {"blue": band(0.05, 0.45), "green": band(0.05, 0.45),
            "red": band(0.05, 0.45), "swir1": band(0.0, 0.4),
            "swir2": band(0.0, 0.4)}


_GENERATORS = {
    SUBCLASS_ERUPTION: _gen_eruption,
    "volcano_quiet": _gen_volcano_quiet,
    "city": _gen_city,
    "mountain": _gen_mountain,
    "cloudy": _gen_cloudy,
    "random": _gen_random,
}


def _write_sample(out_dir, name, bands, label, subclass, rng):
    d = os.path.join(out_dir, name)
    os.makedirs(d, exist_ok=True)
    u = rng.uniform(5)
    meta = {
        "lat": round(-60.0 + 120.0 * u[0], 4),
        "lon": round(-180.0 + 360.0 * u[1], 4),
        "date": datetime.date(2015 + int(u[2] * 5), 1 + int(u[3] * 12),
                              1 + int(u[4] * 28)).isoformat(),
        "label": label,
        "subclass": subclass,
    }
    patch = pp.BandPatch(sensor=pp.Sensor.SYNTHETIC,
                         center_lat=meta["lat"], center_lon=meta["lon"],
                         acquired=datetime.date.fromisoformat(meta["date"]),
                         **bands)
    pp.save_band_planes(os.path.join(d, PATCH_FILENAME), patch)
    with open(os.path.join(d, META_FILENAME), "w") as f:
        json.dump(meta, f, sort_keys=True, indent=0)
        f.write("\n")


def synth_generate(n_per_class, seed, out_dir,
                   size=SYNTH_PATCH_SIZE) -> DatasetManifest:
    """Write n_per_class eruption and n_per_class no-eruption samples.

    No-eruption samples cycle through the five negative subclasses.
    Deterministic: the same (n_per_class, seed) yields byte-identical files.
    Returns build_manifest(out_dir, seed).
    """
    if n_per_class < 1:
        raise InvalidParameterError("n_per_class must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    root = RngStream(seed)
    width = max(4, len(str(n_per_class)))
    negative = SUBCLASSES_NEGATIVE
    samples = [(LABEL_ERUPTION, SUBCLASS_ERUPTION, i) for i in range(n_per_class)] + [
        (LABEL_NO_ERUPTION, negative[i % len(negative)], i) for i in range(n_per_class)]
    for label, subclass, i in samples:
        rng = root.fork(f"{subclass}/{i}")
        bands = _GENERATORS[subclass](rng, size, size)
        _write_sample(out_dir, f"{subclass}_{i:0{width}d}", bands,
                      label, subclass, rng.fork("meta"))
    return build_manifest(out_dir, seed=seed)


def _read_meta(sample_dir):
    """Parse a sample's meta.json into (lat, lon, date, label, subclass).

    A missing, unreadable or malformed file raises CatalogError naming the
    file and the key: no file, a path that cannot be read (a directory,
    say), bad JSON, a missing key, a label other than the integers 0 and
    1, a non-string subclass, a non-numeric lat/lon, or a date other
    than an ISO YYYY-MM-DD.
    """
    path = os.path.join(sample_dir, META_FILENAME)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise CatalogError(f"{path}: missing file") from None
    except OSError as e:
        raise CatalogError(f"{path}: cannot read: {e.strerror}") from None
    try:
        meta = json.loads(data)
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8; nesting too deep
        raise CatalogError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(meta, dict):
        raise CatalogError(f"{path}: expected a JSON object")
    for key in ("lat", "lon", "date", "label", "subclass"):
        if key not in meta:
            raise CatalogError(f"{path}: missing key {key!r}")
    label = meta["label"]
    # bool is an int subclass; a meta.json this module writes never holds one
    if type(label) is not int or label not in (LABEL_NO_ERUPTION, LABEL_ERUPTION):
        raise CatalogError(f"{path}: label must be 0 or 1, got {label!r}")
    if not isinstance(meta["subclass"], str):
        raise CatalogError(f"{path}: subclass must be a string, got {meta['subclass']!r}")
    for key in ("lat", "lon"):
        # bool is an int subclass, and json reads NaN and Infinity
        if type(meta[key]) not in (int, float) or not math.isfinite(meta[key]):
            raise CatalogError(f"{path}: {key} must be a finite number, got {meta[key]!r}")
    # Python 3.11's fromisoformat also takes "20190622" and "2019-W25-6"
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", meta["date"]):
            raise ValueError
        date = datetime.date.fromisoformat(meta["date"])
    except (TypeError, ValueError):
        raise CatalogError(
            f"{path}: date must be an ISO date YYYY-MM-DD, got {meta['date']!r}") from None
    return float(meta["lat"]), float(meta["lon"]), date, label, meta["subclass"]


def load_sample(sample: Sample):
    """Read a sample directory back into (BandPatch, label, subclass)."""
    planes, sensor = pp.load_band_planes(os.path.join(sample.path, PATCH_FILENAME))
    lat, lon, date, label, subclass = _read_meta(sample.path)
    patch = pp.BandPatch(*planes, sensor=sensor, center_lat=lat, center_lon=lon,
                         acquired=date)
    return patch, label, subclass
