"""Five-band patches to network-ready 3-channel composites.

The pipeline is: sensor normalization (raw digital numbers to reflectance
in [0, 1]), SWIR-into-RGB band fusion so hot surfaces stay visible after
the lava darkens, bicubic resize to 512x512, and training-time
augmentation (dihedral-4 symmetries plus white Gaussian noise).  The noise
is drawn in float32, two normals per raw 64-bit output of the stream
(``RngStream.gaussian32``), and scaled by sigma in float32.

Band fusion, with the fixed scale factor ALPHA = 2.5 on every visible
channel:

    RED   = ALPHA * red   + max(0, swir2 - 0.1)
    GREEN = ALPHA * green + max(0, swir1 - 0.1)
    BLUE  = ALPHA * blue

All three channels are clipped to [0, 1] afterwards; the formula can
exceed 1 and the composites feed a display-range-bounded network input.

Plane files (VBP1 patches, VRC1 composites) are written as a new file on
every write: an existing file at the path is unlinked, never truncated.
On ext4 (default ``auto_da_alloc``), closing a file that was truncated and
rewritten starts its writeback at once, and the next truncation of that
file waits for it; a cache build rewrites the same few files in turn and
paid that wait on almost every write.  A new inode is never truncated, and
the dirty pages of the unlinked one are dropped unwritten.  A write cut
short still leaves a short file, which the reader rejects by its offset.
Readers read the payload with one ``readinto`` into the returned array.
Measured on a 2-vCPU ext4 host, 3x512^2 VRC1 files, 8 rewritten in turn,
p10 of 200 writes:

    open(path, "wb"), truncating (the old writer)    4.5-4.6 ms
    temp file + os.replace (flushes on rename-over)   4.7-5.0 ms
    O_WRONLY without O_TRUNC, then truncate()         0.7-0.8 ms
    unlink + new file (this writer)                   1.3 ms

Writing over the file in place is faster but keeps the old size after a
torn write, so a mix of old and new planes would pass the reader's checks.
``save_composite`` p10 went 4.7-4.8 -> 1.9-2.1 ms, ``load_composite``
1.2-1.3 -> 0.9 ms and ``load_band_planes`` (5x256^2) 0.55-0.60 -> 0.38 ms.
"""

from __future__ import annotations

import datetime
import os
import struct
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import InvalidParameterError, ModelFormatError, ShapeError
from .tensor import RngStream

COMPOSITE_SIZE = (512, 512)
ALPHA = 2.5
SWIR_FLOOR = 0.1
CUBIC_A = -0.75
# Output indices per resampling-matrix band in bicubic_resize, on both axes.
# Short bands pay a matmul call each; tall ones span more source indices
# and multiply more zeros, and the fused row band's buffers outgrow the
# cache.  A 3x256^2 -> 512^2 resize (one BLAS thread, 2-vCPU host, p10 of
# 40 calls) took 16.7 ms at 8, 8.1 ms at 16, 5.3 ms at 32, 5.7 ms at 64
# and 8.9 ms at 128.
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
        """Return self; ShapeError, naming the band, unless every band is a
        2-d (H, W) plane of one shared shape with only finite values.  A
        band whose shape differs from that of most bands is named, with
        every band's shape; the first non-finite value is named with its
        (row, col) index."""
        shapes = [np.shape(b) for b in self.bands()]
        for name, shape in zip(BAND_ORDER, shapes):
            if len(shape) != 2:
                raise ShapeError(f"band {name} shape {shape} is not (H, W)")
        common = max(shapes, key=shapes.count)
        for name, shape in zip(BAND_ORDER, shapes):
            if shape != common:
                listing = ", ".join(f"{n} {s}" for n, s in zip(BAND_ORDER, shapes))
                raise ShapeError(f"band {name} shape {shape} differs from the "
                                 f"other bands; shapes: {listing}")
        for name, b in zip(BAND_ORDER, self.bands()):
            finite = np.isfinite(b)
            if not finite.all():
                i = np.unravel_index(int(finite.argmin()), b.shape)
                raise ShapeError(f"band {name} non-finite value {b[i]} "
                                 f"at index {tuple(int(k) for k in i)}")
        return self


@dataclass
class RgbComposite:
    """Network input: (3, 512, 512) float32 in [0, 1]."""
    pixels: np.ndarray
    provenance: str


def normalize_sensor(raw: BandPatch, profile: SensorProfile) -> BandPatch:
    """Raw digital numbers -> reflectance via the profile affine, clipped to [0, 1].

    The patch is validated first: the clip would turn an inf into 1.0.
    """
    raw.validate()
    if raw.sensor != profile.sensor:
        raise InvalidParameterError(
            f"patch sensor {raw.sensor.name} != profile {profile.sensor.name}")
    out = {}
    for name, band, s, o in zip(BAND_ORDER, raw.bands(), profile.scale, profile.offset):
        out[name] = np.clip(band.astype(np.float32) * np.float32(s) + np.float32(o),
                            0.0, 1.0)
    return replace(raw, **out)


def merge_bands(patch: BandPatch) -> np.ndarray:
    """SWIR-highlighted 3-channel composite at the patch's native (H, W).

    Returns (3, H, W) float32 clipped to [0, 1], channels (RED, GREEN, BLUE).
    The patch is validated first: the clip would hide an inf, and a band of
    another shape would broadcast.  Each channel is computed in float32, as
    the float32 bands of normalize_sensor and the plane readers give it,
    straight into its plane of the output.
    """
    patch.validate()
    out = np.empty((3,) + patch.blue.shape, dtype=np.float32)
    hot = np.empty(patch.blue.shape, dtype=np.float32)
    for plane, visible, swir in zip(out, (patch.red, patch.green, patch.blue),
                                    (patch.swir2, patch.swir1, None)):
        np.multiply(ALPHA, visible, out=plane)
        if swir is not None:
            np.subtract(swir, SWIR_FLOOR, out=hot)
            np.maximum(0.0, hot, out=hot)
            plane += hot
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
    per row, edge taps clamped onto the border pixel.  Both passes are
    float64 matmuls per band of at most _RESIZE_BAND output indices,
    against only the source span that band reaches, so the zeros of the
    matrix are mostly skipped.  The passes are fused per band of output
    rows: the row pass writes the band's (C, n, W) rows into a small
    buffer, and each column band is one 2-D matmul of its (C*n, span)
    slice of that buffer against a contiguous copy of the band's
    transposed matrix, written into a (C*n, tw) buffer.  That buffer is
    clipped in place and cast to float32 once, whole rows at a time, into
    the output.  Every output value is the same float64 dot product over
    the same taps as in two whole-image passes, and no (C, th, W)
    intermediate is made.  At target == source size the sample grid lands
    exactly on the input grid and the output equals the input.  A target
    other than two positive ints raises InvalidParameterError before
    anything is allocated.
    """
    if image.ndim != 3:
        raise ShapeError(f"expected (C, H, W), got {image.shape}")
    C, H, W = image.shape
    if not (isinstance(target, (tuple, list)) and len(target) == 2
            and all(isinstance(t, (int, np.integer)) and t > 0 for t in target)):
        raise InvalidParameterError(f"target must be two positive ints, got {target!r}")
    th, tw = target
    if H < 4 or W < 4:
        raise ShapeError(f"input too small for bicubic resize: {H}x{W} (need >= 4x4)")
    x = image.astype(np.float64)
    cols = [(dst, src, np.ascontiguousarray(block.T))
            for dst, src, block in _axis_bands(W, tw)]
    # Band views are cut from flat buffers: a slice of the rows of a
    # (C, band, W) array is not contiguous, and reshaping it would copy.
    band = min(_RESIZE_BAND, th)
    rows_buf, cols_buf = np.empty(C * band * W), np.empty(C * band * tw)
    out = np.empty((C, th, tw), dtype=np.float32)
    for dst, src, block in _axis_bands(H, th):
        n = dst.stop - dst.start
        rows = rows_buf[:C * n * W].reshape(C, n, W)
        np.matmul(block, x[:, src, :], out=rows)
        rows = rows.reshape(C * n, W)
        res = cols_buf[:C * n * tw].reshape(C * n, tw)
        for cdst, csrc, cblock in cols:
            np.matmul(rows[:, csrc], cblock, out=res[:, cdst])
        np.clip(res, 0.0, 1.0, out=res)
        out[:, dst] = res.reshape(C, n, tw)
    return out


def add_gaussian_noise(image: np.ndarray, sigma: float, rng: RngStream) -> np.ndarray:
    """Independent N(0, sigma^2) per element, result clipped to [0, 1].

    The normals are float32 draws (RngStream.gaussian32), one raw 64-bit
    output per two elements, scaled by sigma in float32.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return image.copy()
    noise = rng.gaussian32(image.size).reshape(image.shape)
    noise *= np.float32(sigma)
    out = image + noise.astype(image.dtype, copy=False)
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
    """Full pipeline from raw digital numbers: normalize with the sensor's
    profile, merge, resize.

    Bands of mismatched shape or with non-finite values raise ShapeError.
    """
    return compose_patch(normalize_sensor(raw, PROFILES[raw.sensor]))


# ---------------------------------------------------------------------------
# flat binary plane files (VBP1 five-band patches, VRC1 composites)
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHB")  # magic, H, W, sensor id
_SENSOR_OFFSET = _HEADER.size - 1
# The least magnitude that rounds to inf in float32: 2**128 - 2**103 lies
# halfway between float32's max (2**128 - 2**104) and 2**128, and the tie
# goes to the even 2**128.
_F32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103


def _write_planes(path, magic, n_planes, planes, sensor_id):
    """Write a plane file as a new file, refusing before path is touched
    what _read_planes would refuse: a shape other than (n_planes, H, W), an
    empty plane, H or W above the header's 65535, or a value that is not
    finite or not finite in float32.  The first such value is named as
    given, with its (plane, row, col) index; the planes are cast to
    float32 only after these checks."""
    given = np.asarray(planes)
    if given.ndim != 3 or given.shape[0] != n_planes:
        raise ShapeError(f"{path}: expected ({n_planes}, H, W) planes, got {given.shape}")
    _, H, W = given.shape
    if H == 0 or W == 0:
        raise ShapeError(f"{path}: empty {H}x{W} planes")
    if max(H, W) > 0xFFFF:
        raise ShapeError(f"{path}: {H}x{W} planes exceed 65535")
    finite = np.isfinite(given)
    if given.dtype.itemsize > 4:
        finite &= np.abs(given) < _F32_OVERFLOW
    if not finite.all():
        i = np.unravel_index(int(finite.argmin()), given.shape)
        v, at = given[i], tuple(int(k) for k in i)
        if np.isfinite(v):
            raise ShapeError(f"{path}: value {v} at index {at} overflows float32")
        raise ShapeError(f"{path}: non-finite value {v} at index {at}")
    planes = np.ascontiguousarray(given, dtype="<f4")
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "xb") as f:
        f.write(_HEADER.pack(magic, H, W, sensor_id))
        f.write(memoryview(planes))


def _read_planes(path, magic, n_planes, sensor_ids):
    """(planes (n_planes, H, W) float32, sensor id) of a plane file whose
    sensor byte is one of sensor_ids.  ModelFormatError names the offset
    of the fault, or the OS error where the file cannot be opened or read;
    the whole header, and the file's size against it, is checked before the
    payload is allocated or read."""
    try:
        with open(path, "rb") as f:
            head = f.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise ModelFormatError(f"{path}: truncated header at offset {len(head)}")
            got_magic, H, W, sensor_id = _HEADER.unpack(head)
            if got_magic != magic:
                raise ModelFormatError(f"{path}: bad magic {got_magic!r} at offset 0")
            if H == 0 or W == 0:
                raise ModelFormatError(f"{path}: empty {H}x{W} planes at offset {len(magic)}")
            if sensor_id not in sensor_ids:
                raise ModelFormatError(
                    f"{path}: sensor id {sensor_id} at offset {_SENSOR_OFFSET}, "
                    f"expected {' or '.join(map(str, sensor_ids))}")
            end = _HEADER.size + 4 * n_planes * H * W
            # the header alone can claim 80 GiB: check the size before allocating
            size = os.fstat(f.fileno()).st_size
            if size < end:
                raise ModelFormatError(f"{path}: truncated planes at offset {size}")
            if size > end:
                raise ModelFormatError(f"{path}: trailing bytes at offset {end}")
            arr = np.empty(n_planes * H * W, dtype="<f4")
            # the file can change size between the fstat and the read
            got = f.readinto(arr)
            if got != arr.nbytes:
                raise ModelFormatError(
                    f"{path}: truncated planes at offset {_HEADER.size + got}")
            if f.read(1):
                raise ModelFormatError(
                    f"{path}: trailing bytes at offset {_HEADER.size + got}")
    except OSError as e:  # no file, a directory, a failed read
        raise ModelFormatError(f"{path}: cannot read: {e.strerror}") from None
    arr = arr.astype(np.float32, copy=False)
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(finite.argmin())
        raise ModelFormatError(f"{path}: non-finite value {arr[i]} "
                               f"at offset {_HEADER.size + 4 * i}")
    return arr.reshape(n_planes, H, W), sensor_id


def save_band_planes(path, patch: BandPatch):
    """Write the five band planes of a patch as a new VBP1 file at path.

    ShapeError, before anything at path is touched, if the bands differ in
    shape or the planes fail a check of the reader.  Then whatever is at
    path is unlinked and a new file is created, so the directory must be
    writable; a symlink or hard link at path is replaced, not written
    through, and a reader that already has the old file open keeps it.
    """
    bands = patch.bands()
    for name, b in zip(BAND_ORDER, bands):
        if np.shape(b) != np.shape(bands[0]):
            raise ShapeError(f"{path}: band {name} shape {np.shape(b)} "
                             f"!= {np.shape(bands[0])}")
    _write_planes(path, PATCH_MAGIC, 5, np.stack(bands), int(patch.sensor))


def load_band_planes(path):
    """Read a VBP1 file -> (planes (5, H, W) float32, Sensor)."""
    planes, sensor_id = _read_planes(path, PATCH_MAGIC, 5, tuple(map(int, Sensor)))
    return planes, Sensor(sensor_id)


def save_composite(path, composite: RgbComposite):
    """Write a composite's (3, H, W) planes as a new VRC1 file at path.

    ShapeError, before anything at path is touched, for planes the reader
    would refuse.  Like save_band_planes, it unlinks whatever is at path
    and creates a new file: the directory must be writable, a symlink or
    hard link at path is replaced, not written through, and a reader that
    already has the old file open keeps it.
    """
    _write_planes(path, COMPOSITE_MAGIC, 3, composite.pixels, 0)


def load_composite(path, provenance="") -> RgbComposite:
    """Read a VRC1 file; its sensor byte must be 0, as save_composite writes."""
    planes, _ = _read_planes(path, COMPOSITE_MAGIC, 3, (0,))
    return RgbComposite(pixels=planes, provenance=provenance)
