"""Outside-in tracing of the snnplace layers for the benchmark's traced run.

``Tracer.install`` replaces public snnplace functions at the attributes
where the library looks them up (a module global or a class attribute),
so no library code changes.  Calls at presentation level and above become
spans (name, start, end, parent) kept in memory; the functions that run
once per 0.5 ms simulation step only bump aggregate counters (calls and
summed seconds), because a span per step would cost more than the step.
``Tracer.uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

STEP_NAMES = (
    "imaging.ingest", "network.lif_step", "network.input_spikes",
    "network.inhibition", "network.stdp", "network.normalize_columns",
)


class Span:
    """One traced call; ``inner`` is the step-counter time spent directly in it."""

    __slots__ = ("name", "start", "end", "parent", "inner")

    def __init__(self, name, start, end=0.0, parent=None, inner=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent    # index of the enclosing span, None at the root
        self.inner = inner

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds, total seconds].

    A span's self time is its duration minus the time its child spans
    cover and minus the step-counter time recorded directly inside it.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, list] = {}
    for index, span in enumerate(spans):
        duration = span.end - span.start
        row = out.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration - covered_length(children.get(index, ())) - span.inner
        row[2] += duration
    return out


def _present_name(net, train, learn, run_rest=True):
    return "network.present_learn" if learn else "network.present_infer"


def _archive_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Tracer:
    """Spans, step counters and work counts of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.steps: dict[str, list] = {name: [0, 0.0] for name in STEP_NAMES}
        self.counts: Counter = Counter()
        self.seeds: set[int] = set()
        self._open: list[int] = []
        self._outside = Span("", 0.0)     # receives step time outside any span
        self._current = self._outside
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        self._current = span
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        self._current = self.spans[self._open[-1]] if self._open else self._outside

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def parent_name(self) -> str:
        return self.spans[self._open[-1]].name if self._open else ""

    def reset(self) -> None:
        """Drop everything recorded so far; installed wrappers stay."""
        self.spans.clear()
        for cell in self.steps.values():
            cell[0], cell[1] = 0, 0.0
        self.counts.clear()
        self.seeds.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _step_wrapper(self, fn, name):
        cell = self.steps[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            cell[0] += 1
            cell[1] += elapsed
            tracer._current.inner += elapsed
            return result
        return wrapper

    def _after_encode(self, train, image, cfg, seed, rate_boost_hz=0.0):
        self.seeds.add(int(seed))
        self.counts["imaging.encode.input_spikes"] += len(train)

    def _after_present(self, counts, net, train, learn, run_rest=True):
        spikes = int(counts.sum())
        self.counts["network.output_spikes"] += spikes
        if self.parent_name() == "network.retry":
            self.counts["network.retry.attempts"] += 1
            if spikes >= net.encoding.min_output_spikes:
                self.counts["network.retry.useful"] += 1

    def _expert_images(self, n_images):
        def after(result, model, images, *args, **kwargs):
            self.counts["ensemble.expert_images"] += len(model.experts) * n_images(images)
        return after

    def _after_save(self, result, model, path, overwrite=False):
        self.counts["store.save.bytes"] += _archive_bytes(path)

    def wrap_table(self) -> list[tuple]:
        """(owner, attribute, kind, metric name, after-hook) for every wrapped call."""
        from snnplace import calibration, cli, ensemble, expert, metrics, network, store

        per_image = self._expert_images(lambda reference: reference.shape[0] * reference.shape[1])
        per_query = self._expert_images(lambda queries: queries.shape[0])
        per_call = self._expert_images(lambda query: 1)
        span, step = "span", "step"
        return [
            (network, "poisson_encode", span, "imaging.encode", self._after_encode),
            (ensemble, "poisson_encode", span, "imaging.encode", self._after_encode),
            (cli, "load_and_resize", step, "imaging.ingest", None),
            (cli, "patch_normalize", step, "imaging.ingest", None),
            (cli, "rescale_unit", step, "imaging.ingest", None),
            (network, "lif_step", step, "network.lif_step", None),
            (network, "apply_input_spikes", step, "network.input_spikes", None),
            (network, "apply_lateral_inhibition", step, "network.inhibition", None),
            (network, "stdp_on_post_spike", step, "network.stdp", None),
            (expert, "normalize_columns", step, "network.normalize_columns", None),
            (network.ExpertNetwork, "present", span, _present_name, self._after_present),
            (network.ExpertNetwork, "present_with_retry", span, "network.retry", None),
            (expert.ExpertModel, "build_network", span, "expert.build_network", None),
            (ensemble, "train_expert", span, "expert.train", None),
            (ensemble, "expert_respond", span, "expert.respond", None),
            (ensemble, "detect_hyperactive", span, "ensemble.detect", per_image),
            (ensemble, "collect_query_responses", span, "ensemble.collect", per_query),
            (calibration, "collect_query_responses", span, "ensemble.collect", per_query),
            (ensemble, "match_query", span, "ensemble.match", per_call),
            (ensemble, "fuse_scores", span, "ensemble.fuse", None),
            (metrics, "fuse_scores", span, "ensemble.fuse", None),
            (calibration, "theta_sweep", span, "calibration.theta_sweep", None),
            (metrics, "records_from_responses", span, "metrics.records", None),
            (calibration, "records_from_responses", span, "metrics.records", None),
            (metrics, "neuron_precision_analysis", span, "metrics.neuron_precision", None),
            (store, "save_ensemble", span, "store.save", self._after_save),
            (store, "load_ensemble", span, "store.load", None),
            (store, "scan_traverse", span, "store.scan", None),
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, kind, name, after in self.wrap_table():
            original = vars(owner)[attr]
            if kind == "span":
                wrapper = self._span_wrapper(original, name, after)
            else:
                wrapper = self._step_wrapper(original, name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); absent layers read 0."""
        spans = self_times(self.spans)
        counts = self.counts
        out: dict[str, tuple[float, str]] = {}

        def span_metrics(name, calls=True):
            row = spans.get(name) or self.steps.get(name) or [0, 0.0]
            if calls:
                out[f"{name}.calls"] = (row[0], "count")
            out[f"{name}.self_s"] = (row[1], "s")

        span_metrics("imaging.encode")
        encodes = out["imaging.encode.calls"][0]
        out["imaging.encode.input_spikes"] = (counts["imaging.encode.input_spikes"], "count")
        out["imaging.encode.distinct_seeds"] = (len(self.seeds), "count")
        out["imaging.encode.unique_ratio"] = (len(self.seeds) / encodes if encodes else 0.0, "ratio")
        span_metrics("imaging.ingest", calls=False)

        span_metrics("network.present_learn")
        span_metrics("network.present_infer")
        steps = self.steps["network.lif_step"][0] // 2   # one call per layer per step
        present_s = sum(spans.get(n, [0, 0.0, 0.0])[2]
                        for n in ("network.present_learn", "network.present_infer"))
        out["network.steps"] = (steps, "count")
        out["network.step_us"] = (present_s / steps * 1e6 if steps else 0.0, "us")
        for name in ("network.lif_step", "network.input_spikes", "network.inhibition",
                     "network.stdp", "network.normalize_columns"):
            span_metrics(name)
        attempts = counts["network.retry.attempts"]
        out["network.retry.attempts"] = (attempts, "count")
        out["network.retry.useful_ratio"] = (
            counts["network.retry.useful"] / attempts if attempts else 0.0, "ratio")
        out["network.output_spikes"] = (counts["network.output_spikes"], "count")

        for name in ("expert.train", "expert.respond", "expert.build_network"):
            span_metrics(name)

        span_metrics("ensemble.detect", calls=False)
        span_metrics("ensemble.collect", calls=False)
        span_metrics("ensemble.match")
        span_metrics("ensemble.fuse")
        out["ensemble.expert_images"] = (counts["ensemble.expert_images"], "count")

        span_metrics("calibration.theta_sweep")
        span_metrics("metrics.records", calls=False)
        span_metrics("metrics.neuron_precision", calls=False)

        span_metrics("store.save", calls=False)
        out["store.save.bytes"] = (counts["store.save.bytes"], "bytes")
        span_metrics("store.load", calls=False)
        span_metrics("store.scan", calls=False)
        return out
