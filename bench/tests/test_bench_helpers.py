"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH), "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

from tracing import Span, Tracer, covered_length, self_times  # noqa: E402
from workloads import percentile, samples_beyond, summary, supports_percentile  # noqa: E402


class TestPercentiles:
    def test_nearest_rank_returns_a_sample(self):
        values = list(range(100, 0, -1))          # 1..100, unsorted
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7.5], 90) == 7.5

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_p90_needs_one_hundred_samples(self):
        assert samples_beyond(100, 90) == 10
        assert supports_percentile(100, 90)
        assert not supports_percentile(99, 90)
        assert supports_percentile(20, 50)
        assert not supports_percentile(19, 50)
        assert not supports_percentile(0, 50)

    def test_summary_states_statistic_and_sample_count(self):
        row = summary("ms", [0.001 * k for k in range(1, 101)], "p90", 1e3)
        assert row == {"value": pytest.approx(90.0), "unit": "ms", "stat": "p90", "samples": 100}
        assert summary("s", [3.0, 1.0, 2.0])["value"] == 2.0


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert covered_length([]) == 0.0
        assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
        assert covered_length([(0.0, 5.0), (1.0, 2.0)]) == 5.0

    def test_children_and_step_time_are_subtracted(self):
        spans = [
            Span("stage", 0.0, 10.0, None, inner=1.0),
            Span("present", 1.0, 4.0, 0),
            Span("present", 3.0, 6.0, 0),
            Span("encode", 1.5, 2.0, 1),     # grandchild: counts against its parent only
        ]
        rows = self_times(spans)
        assert rows["stage"] == [1, pytest.approx(10.0 - 5.0 - 1.0), 10.0]
        assert rows["present"] == [2, pytest.approx((3.0 - 0.5) + 3.0), 6.0]
        assert rows["encode"] == [1, pytest.approx(0.5), 0.5]

    def test_open_close_records_parents(self):
        tracer = Tracer()
        with tracer.span("job"):
            with tracer.span("stage"):
                pass
            with tracer.span("stage"):
                pass
        assert [(s.name, s.parent) for s in tracer.spans] == [
            ("job", None), ("stage", 0), ("stage", 0)]
        assert all(s.end >= s.start for s in tracer.spans)


class TestInstall:
    def test_uninstall_restores_every_wrapped_attribute(self):
        tracer = Tracer()
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer.wrap_table()]
        tracer.install()
        try:
            assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
            with pytest.raises(RuntimeError):
                tracer.install()
        finally:
            tracer.uninstall()
        assert all(vars(owner)[attr] is original for owner, attr, original in originals)

    def test_traced_presentation_counts_steps_and_spikes(self):
        from snnplace import network
        from snnplace.imaging import EncodingConfig

        encoding = EncodingConfig(presentation_ms=10.0, rest_ms=0.0, min_output_spikes=0)
        syn = network.SynapseMatrix(np.full((16, 4), 0.5))
        net = network.ExpertNetwork(syn, network.SimulationParams.defaults(), encoding)
        image = np.ones((4, 4))
        tracer = Tracer()
        tracer.install()
        try:
            train = network.poisson_encode(image, encoding, 5)
            counts = net.present(train, learn=False, run_rest=False)
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        assert layer["network.steps"] == (20, "count")            # 10 ms at dt 0.5 ms
        assert layer["network.lif_step.calls"] == (40, "count")   # two layers per step
        assert layer["network.present_infer.calls"] == (1, "count")
        assert layer["imaging.encode.calls"] == (1, "count")
        assert layer["imaging.encode.input_spikes"] == (len(train), "count")
        assert layer["network.output_spikes"] == (int(counts.sum()), "count")
        assert layer["network.present_learn.calls"] == (0, "count")


def test_benchmark_json_lists_every_traced_metric():
    import json

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    traced = {name: unit for name, (_, unit) in Tracer().layer_metrics().items()}
    traced["trace.overhead_ratio"] = "ratio"
    assert declared == traced
