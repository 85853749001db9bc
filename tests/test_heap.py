import os
import platform
import subprocess
import sys

import pytest

import volcnn

# One ingest cycle in a fresh interpreter; prints minor faults per cycle.
_CYCLES = """
import os, resource, sys
from volcnn import dataset as ds, preprocess as pp
sample = ds.synth_generate(1, 1, out_dir=sys.argv[1]).samples[0]
out = os.path.join(sys.argv[1], "composite.vrc")

def cycle():
    patch, _, _ = ds.load_sample(sample)
    pp.save_composite(out, pp.compose_patch(patch))
    pp.load_composite(out)

for _ in range(5):
    cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap pinning is glibc only")
def test_warm_ingest_cycle_faults_no_pages(tmp_path):
    # Under glibc's dynamic thresholds each cycle first-touched about 3900
    # fresh pages, because its 3 MB arrays went back to the OS on free.
    src = os.path.dirname(os.path.dirname(os.path.abspath(volcnn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _CYCLES, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert float(out.stdout) <= 16


class _FakeMallopt:
    def __init__(self, result):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def test_trim_threshold_set_after_mmap_threshold_took():
    mallopt = _FakeMallopt(1)
    volcnn._pin_heap(mallopt)
    assert mallopt.calls == [(volcnn._M_MMAP_THRESHOLD, 32 << 20),
                             (volcnn._M_TRIM_THRESHOLD, 1 << 30)]


def test_trim_threshold_left_alone_when_mmap_threshold_refused():
    # Alone, a trim threshold turns off the dynamic mmap threshold, and
    # that made every op fault more pages, not fewer.
    mallopt = _FakeMallopt(0)
    volcnn._pin_heap(mallopt)
    assert mallopt.calls == [(volcnn._M_MMAP_THRESHOLD, 32 << 20)]
