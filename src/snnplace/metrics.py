"""Evaluation metrics, per-neuron precision analysis, the SAD baseline, and report writers.

Matching is scored with zero ground-truth tolerance: a query counts as
correct only when the predicted place id equals the true one exactly.
Every CSV report goes through ``write_csv`` and every sorted JSON report
through ``write_json``; the named writers only lay out their rows.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsembleModel, MatchResult, fuse_scores, neuron_places
from .errors import ConfigError
from .expert import UNASSIGNED


def records_from_responses(
    model: EnsembleModel,
    responses: np.ndarray,
    truths,
    flags: list[np.ndarray] | np.ndarray | None = None,
) -> list[MatchResult]:
    """Rank cached (n_queries, n_experts, n_excitatory) responses; each carries its truth.

    The queries are ranked as one batch; ``flags`` overrides the model's
    ``hyperactive`` table, as in ``fuse_scores``.
    """
    return [
        replace(record, truth=int(t))
        for record, t in zip(fuse_scores(model, responses, flags), truths)
    ]


def precision_at_100_recall(records: list[MatchResult]) -> float:
    """Fraction of queries whose forced top-1 match is exactly correct."""
    if not records:
        raise ConfigError("cannot score an empty record set")
    return sum(r.correct for r in records) / len(records)


def recall_at_n(records: list[MatchResult], n: int) -> float:
    """Fraction of queries whose true place appears in the top n."""
    if n < 1:
        raise ConfigError("recall_at_n needs n >= 1")
    if not records:
        raise ConfigError("cannot score an empty record set")
    hits = sum(r.truth in r.place_ids[:n] for r in records)
    return hits / len(records)


def pr_curve(records: list[MatchResult]) -> list[tuple[float, float, float]]:
    """Precision/recall while sweeping an acceptance threshold on confidence.

    At each threshold t (descending), queries with confidence >= t are
    accepted; precision is scored over accepted queries and recall is
    accepted-and-correct over all queries.  The final point accepts
    everything, so its precision equals precision_at_100_recall.
    """
    if not records:
        return []
    conf = np.array([r.confidence for r in records])
    correct = np.array([r.correct for r in records])
    points = []
    for t in sorted(set(conf), reverse=True):
        accepted = conf >= t
        tp = int((accepted & correct).sum())
        points.append((float(t), tp / int(accepted.sum()), tp / len(records)))
    return points


@dataclass(frozen=True)
class NeuronPrecisionRecord:
    """How often one neuron's firing coincided with its own place being queried."""

    expert: int
    neuron: int
    assigned_place: int      # global id
    hyperactive: bool
    fired_correct: int       # queries where it fired and truth == assigned place
    fired_total: int         # queries where it fired at all

    @property
    def precision(self) -> float:
        return self.fired_correct / self.fired_total


def neuron_precision_analysis(
    model: EnsembleModel,
    responses: np.ndarray,
    truths,
) -> tuple[list[NeuronPrecisionRecord], dict]:
    """Per-neuron firing precision over a query set, split by hyperactivity.

    A neuron "fires" on a query when its count is nonzero, and fires
    correctly when the truth is its place in ``ensemble.neuron_places``.
    Counts are taken one expert's (queries, K) slice at a time.  Unassigned
    neurons and neurons that never fired carry no precision and are only
    tallied in the summary.
    """
    truths = np.asarray(truths)[:, None]
    places = neuron_places(model)
    fired_total, fired_correct = np.zeros((2,) + places.shape, dtype=np.int64)
    for i in range(len(places)):
        fired = responses[:, i, :] > 0                      # (n_queries, K_E)
        fired_total[i], fired_correct[i] = fired.sum(0), (fired & (truths == places[i])).sum(0)
    assigned = places != UNASSIGNED
    cells = np.nonzero(assigned & (fired_total > 0))        # (expert, neuron) order
    columns = (*cells, places[cells], model.hyperactive[cells],
               fired_correct[cells], fired_total[cells])
    records = [NeuronPrecisionRecord(*row) for row in zip(*(c.tolist() for c in columns))]
    n_unassigned = int((~assigned).sum())
    n_never_fired = places.size - n_unassigned - len(records)
    summary = {
        "n_never_fired": n_never_fired,
        "n_unassigned": n_unassigned,
    }
    for label, group in (
        ("hyperactive", [r.precision for r in records if r.hyperactive]),
        ("non_hyperactive", [r.precision for r in records if not r.hyperactive]),
    ):
        if group:
            q1, q2, q3 = np.percentile(group, [25, 50, 75])
            summary[label] = {
                "n": len(group), "mean": float(np.mean(group)),
                "q1": float(q1), "median": float(q2), "q3": float(q3),
            }
        else:
            summary[label] = {"n": 0}
    return records, summary


def sad_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute pixel differences between two same-sized images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def sad_match(query: np.ndarray, references: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank reference places by pixel-wise distance to the query (ascending).

    ``references`` is (place_count, H, W) or (n_traverses, place_count, H,
    W); with multiple traverses each place scores its minimum distance.
    All images must have passed the same resize + patch-normalize steps as
    the spiking path.  Ties rank the lower place id first.
    """
    query = np.asarray(query, dtype=np.float64)
    references = np.asarray(references, dtype=np.float64)
    if references.ndim == 3:
        references = references[None]
    if references.shape[-2:] != query.shape:
        raise ConfigError(
            f"reference image shape {references.shape[-2:]} != query {query.shape}"
        )
    dists = np.abs(references - query).sum(axis=(-2, -1)).min(axis=0)
    order = np.lexsort((np.arange(dists.size), dists))
    return order.astype(np.int64), dists[order]


def write_csv(path: str | os.PathLike, header, rows) -> None:
    """Write one CSV report: the header row, then every row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | os.PathLike, report: dict) -> None:
    """Write one JSON report with sorted keys, indented by one, and a final newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_pr_curve_csv(path: str | os.PathLike, points) -> None:
    write_csv(path, ["threshold", "precision", "recall"], points)


def write_recall_at_n_csv(path: str | os.PathLike, records, ns) -> None:
    write_csv(path, ["n", "recall"], ([n, recall_at_n(records, n)] for n in ns))


def write_neuron_precision_csv(path: str | os.PathLike, records) -> None:
    write_csv(path, ["expert", "neuron", "assigned_place", "hyperactive",
                     "fired_correct", "fired_total", "precision"],
              ([r.expert, r.neuron, r.assigned_place, int(r.hyperactive),
                r.fired_correct, r.fired_total, r.precision] for r in records))
