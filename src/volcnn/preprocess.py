"""Five-band patches to network-ready 3-channel composites.

The pipeline is: sensor normalization (raw digital numbers to reflectance
in [0, 1]), SWIR-into-RGB band fusion so hot surfaces stay visible after
the lava darkens, bicubic resize to 512x512, and training-time
augmentation (dihedral-4 symmetries plus white Gaussian noise).

Band fusion, with the fixed scale factor ALPHA = 2.5 on every visible
channel:

    RED   = ALPHA * red   + max(0, swir2 - 0.1)
    GREEN = ALPHA * green + max(0, swir1 - 0.1)
    BLUE  = ALPHA * blue

All three channels are clipped to [0, 1] afterwards; the formula can
exceed 1 and the composites feed a display-range-bounded network input.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (
    InvalidParameterError,
    ModelFormatError,
    ProfileError,
    ShapeError,
)
from .tensor import RngStream

COMPOSITE_SIZE = (512, 512)
ALPHA = 2.5
SWIR_FLOOR = 0.1
CUBIC_A = -0.75
# Output rows per resampling-matrix band in bicubic_resize. Short bands pay
# a matmul call each; tall ones span more source rows and multiply more
# zeros. A 3x256^2 -> 512^2 resize (one BLAS thread) took 2.8 ms at 16 rows,
# 2.5 ms at 32, 2.7 ms at 64 and 3.8 ms at 128.
_RESIZE_BAND = 32

BAND_ORDER = ("blue", "green", "red", "swir1", "swir2")

PATCH_MAGIC = b"VBP1"
COMPOSITE_MAGIC = b"VRC1"


class Sensor(IntEnum):
    SENTINEL2 = 0
    LANDSAT7 = 1
    SYNTHETIC = 2


@dataclass(frozen=True)
class SensorProfile:
    """Per-band affine normalization to reflectance.

    scale/offset are 5-tuples in BAND_ORDER. Sentinel-2 L1C stores TOA
    reflectance scaled by 10000; the Landsat-7 level-2 scaling is treated
    as the same configurable affine by default.
    """
    sensor: Sensor
    scale: tuple
    offset: tuple

    def __post_init__(self):
        if len(self.scale) != 5 or len(self.offset) != 5:
            raise InvalidParameterError("profile needs 5 per-band scale/offset values")
        if any(s <= 0 for s in self.scale):
            raise InvalidParameterError("profile scales must be > 0")


def _uniform_profile(sensor, scale, offset):
    return SensorProfile(sensor, (scale,) * 5, (offset,) * 5)


PROFILES = {
    Sensor.SENTINEL2: _uniform_profile(Sensor.SENTINEL2, 1.0 / 10000.0, 0.0),
    Sensor.LANDSAT7: _uniform_profile(Sensor.LANDSAT7, 1.0 / 10000.0, 0.0),
    Sensor.SYNTHETIC: _uniform_profile(Sensor.SYNTHETIC, 1.0, 0.0),
}


@dataclass
class BandPatch:
    """Five georeferenced (H, W) band planes plus acquisition metadata."""
    blue: np.ndarray
    green: np.ndarray
    red: np.ndarray
    swir1: np.ndarray
    swir2: np.ndarray
    sensor: Sensor
    center_lat: float
    center_lon: float
    acquired: datetime.date

    def bands(self):
        return (self.blue, self.green, self.red, self.swir1, self.swir2)

    def validate(self):
        shape = self.blue.shape
        for name, b in zip(BAND_ORDER, self.bands()):
            if b.shape != shape:
                raise ShapeError(f"band {name} shape {b.shape} != {shape}")
            if not np.all(np.isfinite(b)):
                raise ShapeError(f"band {name} contains non-finite values")
        return self


@dataclass
class RgbComposite:
    """Network input: (3, 512, 512) float32 in [0, 1]."""
    pixels: np.ndarray
    provenance: str


def normalize_sensor(raw: BandPatch, profile: SensorProfile) -> BandPatch:
    """Raw digital numbers -> reflectance via the profile affine, clipped to [0, 1]."""
    if raw.sensor != profile.sensor:
        raise ProfileError(
            f"patch sensor {raw.sensor.name} != profile {profile.sensor.name}")
    out = {}
    for name, band, s, o in zip(BAND_ORDER, raw.bands(), profile.scale, profile.offset):
        out[name] = np.clip(band.astype(np.float32) * np.float32(s) + np.float32(o),
                            0.0, 1.0)
    return BandPatch(sensor=raw.sensor, center_lat=raw.center_lat,
                     center_lon=raw.center_lon, acquired=raw.acquired, **out)


def merge_bands(patch: BandPatch) -> np.ndarray:
    """SWIR-highlighted 3-channel composite at the patch's native (H, W).

    Returns (3, H, W) float32 clipped to [0, 1], channels (RED, GREEN, BLUE).
    """
    red = ALPHA * patch.red + np.maximum(0.0, patch.swir2 - SWIR_FLOOR)
    green = ALPHA * patch.green + np.maximum(0.0, patch.swir1 - SWIR_FLOOR)
    blue = ALPHA * patch.blue
    out = np.stack([red, green, blue]).astype(np.float32)
    return np.clip(out, 0.0, 1.0, out=out)


def _cubic_weights(t):
    """Keys cubic convolution kernel, a = -0.75."""
    at = np.abs(t)
    a = CUBIC_A
    w = np.where(
        at <= 1.0,
        (a + 2.0) * at ** 3 - (a + 3.0) * at ** 2 + 1.0,
        np.where(at < 2.0, a * (at ** 3 - 5.0 * at ** 2 + 8.0 * at - 4.0), 0.0),
    )
    return w


def _axis_taps(src_size, dst_size):
    """Tap indices (dst, 4) and weights for one resize axis, edges clamped."""
    pos = (np.arange(dst_size, dtype=np.float64) + 0.5) * (src_size / dst_size) - 0.5
    base = np.floor(pos).astype(np.int64)
    t = pos - base
    offsets = np.arange(-1, 3)
    idx = np.clip(base[:, None] + offsets[None, :], 0, src_size - 1)
    w = _cubic_weights(t[:, None] - offsets[None, :].astype(np.float64))
    return idx, w


def _axis_bands(src_size, dst_size):
    """One resize axis as bands of its (dst, src) resampling matrix.

    Yields (dst, src, block): block is the matrix's rows dst (a slice of
    at most _RESIZE_BAND output indices) cut to the span of source indices
    src that their taps reach. Clamped edge taps add into the border column.
    """
    idx, w = _axis_taps(src_size, dst_size)
    matrix = np.zeros((dst_size, src_size))
    np.add.at(matrix, (np.arange(dst_size)[:, None], idx), w)
    for r0 in range(0, dst_size, _RESIZE_BAND):
        r1 = min(r0 + _RESIZE_BAND, dst_size)
        lo, hi = idx[r0, 0], idx[r1 - 1, -1] + 1
        yield slice(r0, r1), slice(lo, hi), matrix[r0:r1, lo:hi]


def bicubic_resize(image: np.ndarray, target=COMPOSITE_SIZE) -> np.ndarray:
    """Cubic-convolution resample of (C, H, W) to (C, *target), clipped to [0, 1].

    Separable: each axis is a (dst, src) resampling matrix with four taps
    per row, edge taps clamped onto the border pixel. Rows go first, then
    columns. Each pass is a float64 matmul per band of 32 output rows
    against only the source span that band reaches, so the zeros of the
    matrix are mostly skipped; 32 rows measured fastest (see
    _RESIZE_BAND). Each column band is clipped and cast to float32 once,
    straight into the output. At target == source size the sample grid
    lands exactly on the input grid and the output equals the input.
    """
    if image.ndim != 3:
        raise ShapeError(f"expected (C, H, W), got {image.shape}")
    C, H, W = image.shape
    th, tw = target
    if H < 4 or W < 4:
        raise ShapeError(f"input too small for bicubic resize: {H}x{W} (need >= 4x4)")
    x = image.astype(np.float64)
    rows = np.empty((C, th, W))
    for dst, src, block in _axis_bands(H, th):
        np.matmul(block, x[:, src, :], out=rows[:, dst, :])
    out = np.empty((C, th, tw), dtype=np.float32)
    for dst, src, block in _axis_bands(W, tw):
        np.clip(rows[:, :, src] @ block.T, 0.0, 1.0, out=out[:, :, dst])
    return out


def add_gaussian_noise(image: np.ndarray, sigma: float, rng: RngStream) -> np.ndarray:
    """Independent N(0, sigma^2) per element, result clipped to [0, 1]."""
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return image.copy()
    noise = rng.gaussian(image.size).reshape(image.shape) * sigma
    out = image + noise.astype(image.dtype)
    return np.clip(out, 0.0, 1.0, out=out)


# Dihedral-4 elements as (quarter-turns k, horizontal-mirror m):
#   apply(k, m, x) = rot90^k(hflip^m(x)) on the trailing two axes.
_D4 = tuple((k, m) for k in range(4) for m in range(2))


def apply_symmetry(image: np.ndarray, k: int, m: int) -> np.ndarray:
    out = image
    if m:
        out = out[..., ::-1]
    if k:
        out = np.rot90(out, k, axes=(-2, -1))
    return np.ascontiguousarray(out)


def augment(image: np.ndarray, rng: RngStream) -> np.ndarray:
    """One uniformly chosen symmetry of the square, identity included.

    Rotations by an odd quarter-turn require a square image.
    """
    k, m = _D4[int(rng.integers(1, len(_D4))[0])]
    if k % 2 == 1 and image.shape[-1] != image.shape[-2]:
        raise ShapeError(
            f"rot90 needs a square image, got {image.shape[-2]}x{image.shape[-1]}")
    return apply_symmetry(image, k, m)


def compose_patch(patch: BandPatch, target=COMPOSITE_SIZE,
                  provenance="") -> RgbComposite:
    """normalize-merge-resize product for an already-normalized patch."""
    merged = merge_bands(patch)
    pixels = bicubic_resize(merged, target=target)
    return RgbComposite(pixels=pixels, provenance=provenance)


def preprocess_raw(raw: BandPatch) -> RgbComposite:
    """Full pipeline from raw digital numbers: validate, normalize with the
    sensor's profile, merge, resize.

    Bands of mismatched shape or with non-finite values raise ShapeError.
    """
    return compose_patch(normalize_sensor(raw.validate(), PROFILES[raw.sensor]))


# ---------------------------------------------------------------------------
# flat binary plane files (VBP1 five-band patches, VRC1 composites)
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHB")  # magic, H, W, sensor id
_SENSOR_OFFSET = _HEADER.size - 1


def _write_planes(path, magic, n_planes, planes, sensor_id):
    """Write a plane file, refusing before the file is opened what
    _read_planes would refuse: a shape other than (n_planes, H, W), an
    empty plane, H or W above the header's 65535, or a non-finite value
    (the first one is named by its (plane, row, col) index)."""
    planes = np.ascontiguousarray(planes, dtype="<f4")
    if planes.ndim != 3 or planes.shape[0] != n_planes:
        raise ShapeError(f"{path}: expected ({n_planes}, H, W) planes, got {planes.shape}")
    _, H, W = planes.shape
    if H == 0 or W == 0:
        raise ShapeError(f"{path}: empty {H}x{W} planes")
    if max(H, W) > 0xFFFF:
        raise ShapeError(f"{path}: {H}x{W} planes exceed 65535")
    finite = np.isfinite(planes)
    if not finite.all():
        i = np.unravel_index(int(finite.argmin()), planes.shape)
        raise ShapeError(f"{path}: non-finite value {planes[i]} at index "
                         f"{tuple(int(k) for k in i)}")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, H, W, sensor_id))
        f.write(planes.tobytes())


def _read_planes(path, magic, n_planes):
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ModelFormatError(f"{path}: truncated header at offset {len(head)}")
        got_magic, H, W, sensor_id = _HEADER.unpack(head)
        if got_magic != magic:
            raise ModelFormatError(f"{path}: bad magic {got_magic!r} at offset 0")
        if H == 0 or W == 0:
            raise ModelFormatError(f"{path}: empty {H}x{W} planes at offset {len(magic)}")
        want = n_planes * H * W * 4
        data = f.read(want)
        if len(data) != want:
            raise ModelFormatError(
                f"{path}: truncated planes at offset {_HEADER.size + len(data)}")
        if f.read(1):
            raise ModelFormatError(
                f"{path}: trailing bytes at offset {_HEADER.size + want}")
    arr = np.frombuffer(data, dtype="<f4").astype(np.float32)
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(finite.argmin())
        raise ModelFormatError(f"{path}: non-finite value {arr[i]} "
                               f"at offset {_HEADER.size + 4 * i}")
    return arr.reshape(n_planes, H, W), sensor_id


def save_band_planes(path, patch: BandPatch):
    """Write the five band planes of a patch as a VBP1 file; ShapeError,
    before the file is opened, if the bands differ in shape."""
    bands = patch.bands()
    for name, b in zip(BAND_ORDER, bands):
        if np.shape(b) != np.shape(bands[0]):
            raise ShapeError(f"{path}: band {name} shape {np.shape(b)} "
                             f"!= {np.shape(bands[0])}")
    _write_planes(path, PATCH_MAGIC, 5, np.stack(bands), int(patch.sensor))


def load_band_planes(path):
    """Read a VBP1 file -> (planes (5, H, W) float32, Sensor)."""
    planes, sensor_id = _read_planes(path, PATCH_MAGIC, 5)
    try:
        return planes, Sensor(sensor_id)
    except ValueError:
        raise ModelFormatError(f"{path}: unknown sensor id {sensor_id} "
                               f"at offset {_SENSOR_OFFSET}") from None


def save_composite(path, composite: RgbComposite):
    _write_planes(path, COMPOSITE_MAGIC, 3, composite.pixels, 0)


def load_composite(path, provenance="") -> RgbComposite:
    planes, _ = _read_planes(path, COMPOSITE_MAGIC, 3)
    return RgbComposite(pixels=planes, provenance=provenance)
