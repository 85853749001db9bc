import os
import platform
import subprocess
import sys

import pytest

import volcnn

# Warm cycles in a fresh interpreter; prints minor faults per cycle.  The
# sample's VBP1 file and the composite path are in the directory argv[1].
_CYCLES = """
import datetime, os, resource, sys
from volcnn import dataset as ds, preprocess as pp
sample = ds.synth_generate(1, 1, out_dir=sys.argv[1]).samples[0]
out = os.path.join(sys.argv[1], "composite.vrc")

def ingest():
    patch, _, _ = ds.load_sample(sample)
    pp.save_composite(out, pp.compose_patch(patch))
    pp.load_composite(out)

def onboard():
    planes, sensor = pp.load_band_planes(os.path.join(sample.path, ds.PATCH_FILENAME))
    raw = pp.BandPatch(*planes, sensor=sensor, center_lat=0.0, center_lon=0.0,
                       acquired=datetime.date(2019, 6, 22))
    pp.preprocess_raw(raw)

cycle = {"ingest": ingest, "onboard": onboard}[sys.argv[2]]
for _ in range(5):
    cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def _warm_cycle_faults(tmp_path, cycle):
    src = os.path.dirname(os.path.dirname(os.path.abspath(volcnn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _CYCLES, str(tmp_path), cycle], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap pinning is glibc only")
def test_warm_ingest_cycle_faults_no_pages(tmp_path):
    # Under glibc's dynamic thresholds each cycle first-touched about 3900
    # fresh pages, because its 3 MB arrays went back to the OS on free.
    assert _warm_cycle_faults(tmp_path, "ingest") <= 16


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap pinning is glibc only")
def test_warm_onboard_preprocessing_faults_no_pages(tmp_path):
    # The on-board request's path to a composite: VBP1 planes -> BandPatch
    # -> preprocess_raw, with the resize's band buffers.
    assert _warm_cycle_faults(tmp_path, "onboard") <= 16


class _FakeMallopt:
    def __init__(self, result):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def test_trim_threshold_set_after_mmap_threshold_took():
    # then one arena, so the conv workers' buffers come from the pinned heap
    mallopt = _FakeMallopt(1)
    volcnn._pin_heap(mallopt)
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_ARENA_MAX in glibc's <malloc.h>
    assert mallopt.calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]


def test_trim_threshold_left_alone_when_mmap_threshold_refused():
    # Alone, a trim threshold turns off the dynamic mmap threshold, and
    # that made every op fault more pages, not fewer.
    # The arena count is left alone too.
    mallopt = _FakeMallopt(0)
    volcnn._pin_heap(mallopt)
    assert mallopt.calls == [(volcnn._M_MMAP_THRESHOLD, 32 << 20)]
