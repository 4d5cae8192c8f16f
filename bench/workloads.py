"""The benchmark's three workloads on seeded synthetic worlds.

Each workload builds its world from the benchmark seed in ``__init__``
(timed as set-up, with its ``warm_up``), then repeats ``round``: one or
more jobs, a job being the unit of work its user waits for.  A round
returns the wall seconds of each timed stage of each job, and checks its
outputs after the timers stop; ``check`` runs the checks that need every
job.  The library only ever receives the generated arrays and files,
never the benchmark seed.

All library calls go through module attributes (``ensemble.match_query``,
not a name imported at load time), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

from snnplace import calibration, cli, ensemble, imaging, metrics, store, synthetic

# Pinned at the commit that defined the benchmark, for seed 0 only; every
# other seed is checked against invariants alone.
PINNED_SEED = 0
TRAIN_WEIGHTS_SHA256 = "771accddc3c270f0bce3613396436fbbb53af6ec0001ef0f17f1e20611edf087"
REPLAY_TOTALS_SHA256 = "84091eb21e0939015b38087a4fcb61e2f10044b36163f528c25904efc07e2b56"
P_AT_100R_FLOOR = 0.875


def world_seed(seed: int, stream: int) -> int:
    """Independent generator seed for one part of a workload's world."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def sha256_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class Workload:
    """Stage timing, per-job failures and the optional tracer of one workload."""

    name = ""
    min_jobs = 1
    # Experts and neurons the speed probe imitates, and the probe time that
    # makes reference seconds about equal to wall seconds on the machine
    # the benchmark was defined on (2 cores, Python 3.11, numpy 2.4).
    probe: tuple[int, int, float]
    traced_rounds = 1           # rounds in one traced pass

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir)
        self.tracer = None          # set by the traced run
        self.speed = None           # SpeedProbe, set by the untraced run
        self.failures: dict[int, list[str]] = {}

    def fail(self, index: int, message: str) -> None:
        self.failures.setdefault(index, []).append(message)

    def speed_factor(self) -> float:
        """Reference seconds per wall second since the previous probe point."""
        return self.speed.factor() if self.speed is not None else 1.0

    @contextlib.contextmanager
    def stage(self, seconds: dict, name: str, scale: bool = True):
        """Time one stage into ``seconds[name]``; a span too when tracing.

        The entry is (wall, reference) seconds, with a probe point taken
        right after the stage; with ``scale=False`` it is the wall seconds
        alone and the caller scales them.
        """
        span = self.tracer.open("stage." + name) if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
            seconds[name] = (wall, wall * self.speed_factor()) if scale else wall

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list[dict[str, tuple[float, float]]]:
        """Run jobs from number ``index`` on; per job, stage -> (wall, reference) seconds."""
        raise NotImplementedError

    def traced_pass(self) -> int:
        """Run the fixed work the traced run measures (job numbers from 0); returns jobs run."""
        jobs = 0
        for _ in range(self.traced_rounds):
            jobs += len(self.round(jobs))
        return jobs

    def check(self) -> None:
        """Checks that need every job; failures go to ``self.fail``."""

    def details(self, samples: list[dict]) -> dict[str, dict]:
        """Per-stage figures, as name -> value, unit, statistic, samples.

        Figures use reference seconds.
        """
        return {
            name: summary(unit="s", values=[s[name][1] for s in samples])
            for name in samples[0]
        }


def median(values) -> float:
    return float(np.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, int(np.ceil(q / 100.0 * n)))


def supports_percentile(n: int, q: float, tail: int = 10) -> bool:
    """A percentile is reported only with at least ``tail`` samples beyond it."""
    return n > 0 and samples_beyond(n, q) >= tail


def summary(unit: str, values, stat: str = "median", scale: float = 1.0) -> dict:
    q = 50.0 if stat == "median" else float(stat.lstrip("p"))
    value = median(values) if stat == "median" else percentile(values, q)
    return {"value": value * scale, "unit": unit, "stat": stat, "samples": len(values)}


class TrainPipeline(Workload):
    """The operator's batch flow: CLI ``train``, ``regularize``, ``evaluate``."""

    name = "train_pipeline"
    min_jobs = 5
    places = 16
    kappa = 8
    neurons = 100
    epochs = 2
    probe = (2, 100, 0.0053)
    raw_size = (40, 40)      # written larger than 28x28 so ingest really resizes
    theta = "100"

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.ref_dir = os.path.join(work_dir, "reference")
        self.query_dir = os.path.join(work_dir, "query")
        self.config = os.path.join(work_dir, "config.json")
        textures = synthetic.make_textures(self.places, self.raw_size, world_seed(seed, 1))
        queries = synthetic.corrupt_queries(textures, world_seed(seed, 2))
        for directory, images in ((self.ref_dir, textures), (self.query_dir, queries)):
            os.makedirs(directory)
            for place, image in enumerate(images):
                imaging.write_pgm(os.path.join(directory, f"{place:04d}.pgm"), image)
        with open(self.config, "w") as fh:
            json.dump({"workers": 1, "expert": {
                "epochs": self.epochs, "record_last_epochs": 1,
                "places_per_expert": self.kappa, "n_excitatory": self.neurons,
            }}, fh)
        self.weight_digests: list[str] = []
        self.p_at_100r: list[float] = []

    def _cli(self, index: int, argv: list[str]) -> bool:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--config", self.config])
        if code != 0:
            self.fail(index, f"`snnplace {argv[0]}` exited {code}: {err.getvalue().strip()}")
        return code == 0

    def _flow(self, index: int, job_dir: str, seconds: dict, places=None) -> bool:
        os.makedirs(job_dir)
        model = os.path.join(job_dir, "model")
        train = ["train", "--ref-dirs", self.ref_dir, "--out", model]
        if places:
            train += ["--places", str(places), "--kappa", str(places)]
        with self.stage(seconds, "train_s"):
            ok = self._cli(index, train)
        with self.stage(seconds, "regularize_s"):
            ok = ok and self._cli(index, [
                "regularize", "--model", model, "--ref-dirs", self.ref_dir, "--theta", self.theta,
            ])
        with self.stage(seconds, "evaluate_s"):
            ok = ok and self._cli(index, [
                "evaluate", "--model", model, "--query-dir", self.query_dir,
                "--report-dir", os.path.join(job_dir, "reports"),
            ])
        return ok

    def warm_up(self) -> None:
        job_dir = os.path.join(self.work_dir, "warm_up")
        self._flow(-1, job_dir, {}, places=2)
        shutil.rmtree(job_dir)

    def round(self, index: int) -> list[dict[str, tuple[float, float]]]:
        job_dir = os.path.join(self.work_dir, f"job{index}")
        seconds: dict[str, tuple[float, float]] = {}
        if self._flow(index, job_dir, seconds):
            self._check_job(index, job_dir)
        shutil.rmtree(job_dir, ignore_errors=True)
        return [seconds]

    def _check_job(self, index: int, job_dir: str) -> None:
        model = os.path.join(job_dir, "model")
        payloads = sorted(f for f in os.listdir(model) if f.endswith(".bin"))
        digest = hashlib.sha256()
        for name in payloads:
            with open(os.path.join(model, name), "rb") as fh:
                digest.update(fh.read())
        self.weight_digests.append(digest.hexdigest())
        if self.weight_digests[-1] != self.weight_digests[0]:
            self.fail(index, "archive weights differ between jobs of one run")
        if self.seed == PINNED_SEED and self.weight_digests[-1] != TRAIN_WEIGHTS_SHA256:
            self.fail(index, f"archive weight sha256 {self.weight_digests[-1]} != pinned")
        with open(os.path.join(job_dir, "reports", "summary.json")) as fh:
            report = json.load(fh)
        self.p_at_100r.append(report["p_at_100r"])
        if report["n_queries"] != self.places:
            self.fail(index, f"evaluate scored {report['n_queries']} of {self.places} queries")
        if report["p_at_100r"] < P_AT_100R_FLOOR:
            self.fail(index, f"P@100R {report['p_at_100r']} below the floor {P_AT_100R_FLOOR}")

    def details(self, samples):
        out = super().details(samples)
        if self.p_at_100r:
            out["p_at_100r"] = {"value": self.p_at_100r[0], "unit": "fraction",
                                "stat": "deterministic", "samples": len(self.p_at_100r)}
        return out


class QueryStream(Workload):
    """One waiting client: ``match_query`` one image at a time, closed loop."""

    name = "query_stream"
    min_jobs = 100           # p90 needs ten samples beyond it
    round_queries = 3
    probe = (8, 100, 0.0055)
    traced_rounds = 7         # 21 queries
    experts = 8
    neurons = 100
    kappa = 25
    query_pool = 25
    warm_up_queries = 3
    check_sample = 4

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.model = synthetic.synthetic_ensemble(
            self.experts, n_excitatory=self.neurons, places_per_expert=self.kappa,
            seed=world_seed(seed, 1),
        )
        textures = synthetic.make_textures(self.query_pool, (28, 28), world_seed(seed, 2))
        self.queries = synthetic.corrupt_queries(textures, world_seed(seed, 3))
        self.results: dict[int, ensemble.MatchResult] = {}

    def warm_up(self) -> None:
        for k in range(self.warm_up_queries):
            ensemble.match_query(self.model, self.queries[k], query_id=10**6 + k)

    def round(self, index: int) -> list[dict[str, tuple[float, float]]]:
        """A few queries between two probe points, so the probe costs little per query."""
        walls = []
        for k in range(index, index + self.round_queries):
            seconds: dict[str, float] = {}
            with self.stage(seconds, "match_s", scale=False):
                self.results[k] = ensemble.match_query(
                    self.model, self.queries[k % self.query_pool], query_id=k
                )
            walls.append(seconds["match_s"])
        factor = self.speed_factor()
        return [{"match_s": (wall, wall * factor)} for wall in walls]

    def check(self) -> None:
        """A sample of single-query rankings must equal the batch path's."""
        done = sorted(self.results)
        for k in sorted({done[int(i)] for i in np.linspace(0, len(done) - 1, self.check_sample)}):
            responses = ensemble.collect_query_responses(
                self.model, self.queries[k % self.query_pool][None], query_id_base=k
            )
            (record,) = metrics.records_from_responses(self.model, responses, [0])
            single = self.results[k]
            if not (np.array_equal(single.place_ids, record.place_ids)
                    and np.array_equal(single.scores, record.scores)):
                self.fail(k, f"query {k}: match_query ranking differs from the batch path")
            if sorted(single.place_ids.tolist()) != list(range(self.model.place_count)):
                self.fail(k, f"query {k}: ranking is not a permutation of the places")

    def details(self, samples):
        latencies = [s["match_s"][1] for s in samples]
        if not supports_percentile(len(latencies), 90):
            raise ValueError(f"{len(latencies)} queries cannot support a p90")
        return {
            "match_p50_ms": summary("ms", latencies, "median", 1e3),
            "match_p90_ms": summary("ms", latencies, "p90", 1e3),
        }


class ReplayBatch(Workload):
    """Offline inference: regularization replay, archive round trip, evaluation."""

    name = "replay_batch"
    min_jobs = 5
    experts = 4
    neurons = 400
    kappa = 3
    theta = 200.0
    probe = (4, 400, 0.0080)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.model = synthetic.synthetic_ensemble(
            self.experts, n_excitatory=self.neurons, places_per_expert=self.kappa,
            seed=world_seed(seed, 1),
        )
        places = self.model.place_count
        self.reference = synthetic.make_textures(places, (28, 28), world_seed(seed, 2))[None]
        self.queries = synthetic.corrupt_queries(self.reference[0], world_seed(seed, 3))
        self.truths = np.arange(places)
        self.totals_digests: list[str] = []
        self.curves: list = []

    def warm_up(self) -> None:
        ensemble.detect_hyperactive(self.model, self.reference[:, :1], self.theta)
        ensemble.collect_query_responses(self.model, self.queries[:1])

    def round(self, index: int) -> list[dict[str, tuple[float, float]]]:
        seconds: dict[str, tuple[float, float]] = {}
        job_dir = os.path.join(self.work_dir, f"job{index}")
        os.makedirs(job_dir)
        archive = os.path.join(job_dir, "model")
        with self.stage(seconds, "regularize_s"):
            ensemble.detect_hyperactive(self.model, self.reference, self.theta)
            store.save_ensemble(self.model, archive)
        with self.stage(seconds, "evaluate_s"):
            loaded = store.load_ensemble(archive)
            responses = ensemble.collect_query_responses(loaded, self.queries)
            curve = calibration.theta_sweep(loaded, self.queries, self.truths, responses=responses)
            records, _ = metrics.neuron_precision_analysis(loaded, responses, self.truths)
            calibration.write_theta_sweep_csv(os.path.join(job_dir, "theta_sweep.csv"), curve)
            metrics.write_neuron_precision_csv(os.path.join(job_dir, "neuron_precision.csv"), records)
        self._check_job(index, loaded, curve)
        shutil.rmtree(job_dir)
        return [seconds]

    def _check_job(self, index: int, loaded, curve) -> None:
        if not same_ensemble(self.model, loaded):
            self.fail(index, "save/load round trip is not bit-exact")
        self.totals_digests.append(sha256_arrays(ex.reference_totals for ex in self.model.experts))
        self.curves.append(curve)
        if self.totals_digests[-1] != self.totals_digests[0] or curve != self.curves[0]:
            self.fail(index, "reference totals or theta sweep differ between jobs of one run")
        if self.seed == PINNED_SEED and self.totals_digests[-1] != REPLAY_TOTALS_SHA256:
            self.fail(index, f"reference totals sha256 {self.totals_digests[-1]} != pinned")


def same_ensemble(a, b) -> bool:
    """Every persisted field of two ensembles is identical, arrays bit for bit."""
    scalars = ("place_count", "sim", "encoding", "patch", "image_size", "global_seed",
               "theta", "regularized", "expert_config", "dataset_fingerprints")
    if any(getattr(a, f) != getattr(b, f) for f in scalars) or len(a.experts) != len(b.experts):
        return False
    arrays = ("weights", "theta", "assignments", "reference_totals", "hyperactive")
    for x, y in zip(a.experts, b.experts):
        if (x.global_start, x.n_places) != (y.global_start, y.n_places):
            return False
        for f in arrays:
            u, v = getattr(x, f), getattr(y, f)
            if u.dtype != v.dtype or u.shape != v.shape or u.tobytes() != v.tobytes():
                return False
    return True


WORKLOADS = {w.name: w for w in (TrainPipeline, QueryStream, ReplayBatch)}
