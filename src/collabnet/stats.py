"""Summary statistics and histograms for record features.

Operates on the contribution records' columns: contribution percentage is
always available, IC-score only on records that carry one. Statistics use the
population convention (divisor N) since a dataset is the full population of
its projects, not a sample.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .ingest import RecordTable

__all__ = [
    "Feature",
    "FeatureSummary",
    "FeatureAbsentError",
    "summarize",
    "select_linkage_feature",
    "histogram_csv_bytes",
    "summaries_to_json_bytes",
]

DEFAULT_BINS = 20


class Feature(Enum):
    CONTRIBUTION_PCT = "contribution_pct"
    IC_SCORE = "ic_score"


class FeatureAbsentError(ValueError):
    """No record in the dataset carries the requested feature."""


@dataclass(frozen=True)
class FeatureSummary:
    """Population statistics plus an equal-width histogram of one feature."""

    feature_name: Feature
    count: int
    mean: float
    std_dev: float
    variance: float
    histogram: tuple[tuple[float, float, int], ...]

    @property
    def data_min(self) -> float:
        return self.histogram[0][0]

    @property
    def data_max(self) -> float:
        return self.histogram[-1][1]

    @property
    def coverage_range(self) -> float:
        return self.data_max - self.data_min


def _feature_values(records: RecordTable, feature: Feature) -> np.ndarray:
    if feature is Feature.CONTRIBUTION_PCT:
        return records.contribution_pct
    return records.ic_score[~np.isnan(records.ic_score)]


def summarize(
    records: RecordTable,
    feature: Feature,
    n_bins: int = DEFAULT_BINS,
) -> FeatureSummary:
    """Mean / std / variance and an n_bins histogram of one feature.

    Bins are contiguous and equal width over [min, max] of the observed
    values, with the final bin right-closed so the maximum is counted.
    Records without the feature are skipped; zero usable values raise
    :class:`FeatureAbsentError`.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    arr = _feature_values(records, feature)
    if not arr.size:
        raise FeatureAbsentError(f"feature absent from dataset: {feature.value}")

    if arr.min() == arr.max():
        # degenerate range: a single zero-width bin holds everything
        bins = ((float(arr.min()), float(arr.max()), arr.size),)
    else:
        counts, edges = np.histogram(arr, bins=n_bins)
        bins = tuple(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    std = float(arr.std())
    return FeatureSummary(
        feature_name=feature,
        count=arr.size,
        mean=float(arr.mean()),
        std_dev=std,
        variance=std * std,
        histogram=bins,
    )


def select_linkage_feature(contribution: FeatureSummary, ic: FeatureSummary) -> Feature:
    """Advisory pick of the feature with the broader observed value range.

    Ties go to contribution percentage. The linkage computation itself is
    always driven by contribution percentage; this is a data-coverage note,
    not a switch.
    """
    if ic.coverage_range > contribution.coverage_range:
        return Feature.IC_SCORE
    return Feature.CONTRIBUTION_PCT


def histogram_csv_bytes(summary: FeatureSummary) -> bytes:
    """Plot-ready histogram rows: bin_lower, bin_upper, count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("bin_lower", "bin_upper", "count"))
    writer.writerows((repr(lo), repr(hi), count) for lo, hi, count in summary.histogram)
    return buf.getvalue().encode("utf-8")


def summaries_to_json_bytes(
    summaries: Sequence[FeatureSummary],
    *,
    notes: dict[str, str] | None = None,
) -> bytes:
    """JSON block with one entry per summarized feature plus optional notes."""
    payload: dict[str, object] = {
        summary.feature_name.value: {
            "count": summary.count,
            "mean": summary.mean,
            "std_dev": summary.std_dev,
            "variance": summary.variance,
            "min": summary.data_min,
            "max": summary.data_max,
            "n_bins": len(summary.histogram),
        }
        for summary in summaries
    }
    if notes:
        payload["notes"] = dict(sorted(notes.items()))
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
