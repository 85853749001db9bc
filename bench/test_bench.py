"""Tests of the benchmark itself: statistics, spans, costs, reference, checks."""

import datetime

import numpy as np
import pytest

import harness as H
import ref64
import workloads as W
from spans import NULL_TRACER, Tracer, self_times
from volcnn import nn
from volcnn import preprocess as pp
from volcnn.tensor import RngStream


def test_p90_needs_ten_samples_beyond_it():
    assert W.p90(list(range(99))) is None          # only 9 lie beyond
    assert W.p90(list(range(100))) == 89           # 10 lie beyond
    s = W.summarize([0.001] * 100)
    assert (s["n"], s["beyond_p90"]) == (100, 10)
    assert s["p50_ms"] == pytest.approx(1.0) and s["p90_ms"] == pytest.approx(1.0)
    assert W.summarize([0.001] * 50)["p90_ms"] is None


def test_p10_is_nearest_rank():
    assert W.p10(list(range(100))) == 9
    assert W.p10([5.0, 3.0, 4.0]) == 3.0            # below ten samples: the minimum
    assert W.summarize([0.002, 0.001] * 10)["p10_ms"] == pytest.approx(1.0)


def test_loop_runs_at_least_one_op():
    class Op:
        def op(self, k, tracer):
            return k

        def check(self, k, out):
            return out == k

    failed = set()
    times, k = W._loop(Op(), 0.0, 4, NULL_TRACER, failed)
    assert len(times) == 1 and k == 5 and not failed


def test_layer_table_marks_cross_workload_values():
    own, other = Tracer(), Tracer()
    with own.span("preprocess.merge_bands"):
        pass
    with other.span("preprocess.merge_bands"):
        pass
    with other.span("nn.adam.step"):
        pass
    table = W.layer_table([("ingest", own), ("train", other)])
    assert table["preprocess.merge_bands"]["measured_in"] == "ingest"
    assert not table["preprocess.merge_bands"]["cross_workload"]
    assert table["nn.adam.step"]["measured_in"] == "train"
    assert table["nn.adam.step"]["cross_workload"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, -1, 7],
        ["a", 1.0, 4.0, 0, 7],
        ["b", 5.0, 8.0, 0, 7],
        ["c", 5.5, 6.5, 2, 7],
    ]
    st = self_times(spans)
    assert st["op"] == [(10.0, 4.0)]
    assert st["a"] == [(3.0, 3.0)]
    assert st["b"] == [(3.0, 2.0)]
    assert st["c"] == [(1.0, 1.0)]


def test_tracer_records_parents_and_request_ids():
    tr = Tracer()
    tr.request_id = 3
    with tr.span("op"):
        with tr.span("x"):
            with tr.span("y"):
                pass
        with tr.span("z"):
            pass
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [
        ("op", -1, 3), ("x", 0, 3), ("y", 1, 3), ("z", 0, 3)]
    assert all(s[2] >= s[1] for s in tr.spans)


def test_patched_calls_nest_and_are_restored():
    original = pp.bicubic_resize
    tr = Tracer()
    img = np.random.default_rng(0).random((3, 8, 8), dtype=np.float32)
    with tr.patched(pp, ("compose_patch", "merge_bands", "bicubic_resize"), "preprocess"):
        patch = pp.BandPatch(*img[[2, 1, 0, 0, 1]], sensor=pp.Sensor.SYNTHETIC,
                             center_lat=0.0, center_lon=0.0,
                             acquired=datetime.date(2020, 1, 1))
        pp.compose_patch(patch, target=(16, 16))
    assert pp.bicubic_resize is original
    names = {s[0]: (i, s[3]) for i, s in enumerate(tr.spans)}
    assert names["preprocess.merge_bands"][1] == names["preprocess.compose_patch"][0]
    assert names["preprocess.bicubic_resize"][1] == names["preprocess.compose_patch"][0]


def test_conv_flop_counts():
    assert H.conv_flops(1, 512, 512, 3, 16) == 2 * 512 * 512 * 3 * 16 * 9
    costs = H.span_costs(4)
    b0 = costs["nn.full.b0.conv.fwd"]["flops"]
    assert b0 == 4 * 226_492_416
    assert costs["nn.full.b0.conv.bwd"]["flops"] == b0        # no input gradient
    b1 = costs["nn.full.b1.conv.fwd"]["flops"]
    assert b1 == 2 * 4 * 256 * 256 * 16 * 32 * 9
    assert costs["nn.full.b1.conv.bwd"]["flops"] == 2 * b1
    full = sum(costs[f"nn.full.b{i}.conv.fwd"]["flops"] for i in range(7)) / 4
    assert full == 2 * 9 * sum(
        (512 >> i) ** 2 * cin * cout
        for i, (cin, cout) in enumerate(zip((3, 16, 32, 64, 128, 256, 512),
                                            H.NETS["full"][0])))


def test_per_layer_names_are_unique_and_cover_both_nets():
    names = H.per_layer_names()
    assert len(names) == len(set(names)) == 110
    assert "nn.full.b6.conv.bwd_ms" in names and "nn.pruned.b6.pool.fwd_ms" in names
    assert not any(n.startswith("nn.pruned.") and ".bwd" in n for n in names)


def _tiny_input(n, seed=0):
    # 128x128 is the smallest input seven 2x2 pools reduce to 1x1
    return np.random.default_rng(seed).random((n, 128, 128, 3), dtype=np.float32)


def test_reference_forward_matches_nn_in_infer_mode():
    net = H.Net("pruned", 5)
    x = _tiny_input(2)
    s, z, _ = H.forward(net, x, False, NULL_TRACER)
    rs, rz = ref64.forward64(net.export(), x)
    np.testing.assert_allclose(z, rz, rtol=1e-4, atol=1e-5)
    assert np.abs(s - rs).max() <= W.SCORE_ATOL


def test_reference_forward_matches_nn_in_train_mode():
    net = H.Net("pruned", 6)
    params = net.export()
    x = _tiny_input(4, seed=1)
    y = np.array([[1], [0], [1], [0]], dtype=np.float32)
    s, _, cache = H.forward(net, x, True, NULL_TRACER, RngStream(3))
    loss, _ = nn.bce_loss(s, y)
    rs, _ = ref64.forward64(params, x, train=True, mask=cache[5])
    assert W.loss_matches(loss, ref64.bce64(rs, y))


def test_reference_composite_matches_preprocess():
    rng = np.random.default_rng(2)
    planes = (rng.random((5, 12, 12)) * 4000).astype(np.float32)
    raw = pp.BandPatch(*planes, sensor=pp.Sensor.SENTINEL2, center_lat=0.0,
                       center_lon=0.0, acquired=datetime.date(2020, 1, 1))
    got = pp.compose_patch(pp.normalize_sensor(raw, pp.PROFILES[raw.sensor]),
                           target=(24, 24)).pixels
    scale, offset = H.sensor_profile(raw.sensor)
    np.testing.assert_allclose(got, ref64.composite64(planes, scale, offset, size=24),
                               atol=1e-6)


@pytest.fixture(scope="module")
def onboard(tmp_path_factory):
    w = W.Onboard("pruned")
    w.setup(1, str(tmp_path_factory.mktemp("onboard")))
    return w


def test_onboard_scores_match_reference(onboard):
    failed = set()
    for k in W.REF_OPS:
        W._attempt(onboard, k, NULL_TRACER, failed)
    bad, info = onboard.reference()
    assert not failed and not bad and info["max_abs_score_err"] <= W.SCORE_ATOL


def test_perturbed_score_counts_as_failed(onboard):
    W._attempt(onboard, 0, NULL_TRACER, set())
    planes, sensor, score = onboard.kept[0]
    onboard.kept[0] = (planes, sensor, score + 10 * W.SCORE_ATOL)
    bad, _ = onboard.reference()
    assert bad == [0]


def test_out_of_range_score_counts_as_failed(onboard, monkeypatch):
    monkeypatch.setattr(H.nn, "sigmoid", lambda z: z * 0 + 1.5)
    failed = set()
    W._attempt(onboard, 5, NULL_TRACER, failed)
    assert failed == {5}


def test_corrupted_round_trip_counts_as_failed(tmp_path, monkeypatch):
    w = W.Ingest()
    w.setup(1, str(tmp_path))
    failed = set()
    W._attempt(w, 0, NULL_TRACER, failed)
    assert not failed
    load = pp.load_composite

    def corrupt(path, provenance=""):
        c = load(path, provenance)
        c.pixels.reshape(-1)[123] = np.nextafter(c.pixels.reshape(-1)[123], 2)
        return c

    monkeypatch.setattr(pp, "load_composite", corrupt)
    W._attempt(w, 1, NULL_TRACER, failed)
    assert failed == {1}


def test_failing_op_counts_as_failed(tmp_path, monkeypatch):
    w = W.Ingest()
    w.setup(1, str(tmp_path))

    def boom(*a, **k):
        raise OSError("disk full")

    monkeypatch.setattr(pp, "save_composite", boom)
    failed = set()
    W._attempt(w, 0, NULL_TRACER, failed)
    assert failed == {0}
