from __future__ import annotations

import json
import random

import pytest

from collabnet.stats import (
    Feature,
    FeatureAbsentError,
    histogram_csv_bytes,
    select_linkage_feature,
    summaries_to_json_bytes,
    summarize,
)
from oracles import Row, table_of


def record(pct: float, ic: float | None = None) -> Row:
    return Row("P", f"M{pct}-{ic}", pct, ic)


def records_from(values, ic=False):
    if ic:
        return table_of(record(50.0, v) for v in values)
    return table_of(record(v) for v in values)


def test_constant_data():
    summary = summarize(records_from([10.0, 10.0, 10.0]), Feature.CONTRIBUTION_PCT)
    assert summary.mean == 10.0
    assert summary.std_dev == 0.0
    assert summary.variance == 0.0
    assert summary.histogram == ((10.0, 10.0, 3),)
    assert summary.count == 3


def test_two_point_histogram():
    summary = summarize(records_from([0.0, 100.0]), Feature.CONTRIBUTION_PCT, n_bins=2)
    assert summary.mean == 50.0
    assert summary.histogram == ((0.0, 50.0, 1), (50.0, 100.0, 1))


def test_last_bin_right_closed():
    summary = summarize(records_from([0.0, 50.0, 100.0]), Feature.CONTRIBUTION_PCT, n_bins=2)
    assert summary.histogram[-1][2] == 2  # 50 and 100 both land in the top bin


def test_histogram_invariants_on_random_data():
    rng = random.Random(8)
    for _ in range(20):
        values = [rng.uniform(0, 100) for _ in range(rng.randint(2, 200))]
        n_bins = rng.randint(1, 25)
        summary = summarize(records_from(values), Feature.CONTRIBUTION_PCT, n_bins)
        assert sum(count for _, _, count in summary.histogram) == summary.count
        widths = [hi - lo for lo, hi, _ in summary.histogram]
        assert max(widths) - min(widths) < 1e-9
        for (_, hi_prev, _), (lo_next, _, _) in zip(summary.histogram, summary.histogram[1:]):
            assert hi_prev == pytest.approx(lo_next)
        assert summary.data_min == pytest.approx(min(values))
        assert summary.data_max == pytest.approx(max(values))
        assert summary.variance == pytest.approx(summary.std_dev**2, rel=1e-9)


def test_population_statistics():
    # population variance (divisor N), not sample variance
    summary = summarize(records_from([0.0, 10.0]), Feature.CONTRIBUTION_PCT)
    assert summary.mean == 5.0
    assert summary.variance == pytest.approx(25.0)
    assert summary.std_dev == pytest.approx(5.0)


def test_permutation_invariance():
    rng = random.Random(21)
    values = [rng.uniform(0, 100) for _ in range(100)]
    shuffled = values[:]
    rng.shuffle(shuffled)
    a = summarize(records_from(values), Feature.CONTRIBUTION_PCT)
    b = summarize(records_from(shuffled), Feature.CONTRIBUTION_PCT)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.std_dev == pytest.approx(b.std_dev, rel=1e-12)
    assert a.histogram == b.histogram


def test_shift_property():
    rng = random.Random(34)
    values = [rng.uniform(0, 50) for _ in range(200)]
    base = summarize(records_from(values), Feature.CONTRIBUTION_PCT)
    shifted = summarize(records_from([v + 25.0 for v in values]), Feature.CONTRIBUTION_PCT)
    assert shifted.mean == pytest.approx(base.mean + 25.0, rel=1e-9)
    assert shifted.std_dev == pytest.approx(base.std_dev, rel=1e-9)
    assert shifted.variance == pytest.approx(base.variance, rel=1e-9)


def test_ic_records_skipped_when_absent():
    records = table_of([record(10.0, 1.0), record(20.0, None), record(30.0, 3.0)])
    summary = summarize(records, Feature.IC_SCORE)
    assert summary.count == 2
    assert summary.mean == 2.0


def test_feature_absent_error():
    with pytest.raises(FeatureAbsentError, match="feature absent"):
        summarize(table_of([record(10.0, None)]), Feature.IC_SCORE)
    with pytest.raises(FeatureAbsentError):
        summarize(table_of([]), Feature.CONTRIBUTION_PCT)


def test_bad_bin_count():
    with pytest.raises(ValueError):
        summarize(records_from([1.0]), Feature.CONTRIBUTION_PCT, n_bins=0)


def test_select_linkage_feature_broader_range():
    contribution = summarize(records_from([0.0, 100.0]), Feature.CONTRIBUTION_PCT)
    narrow_ic = summarize(records_from([0.0, 20.0], ic=True), Feature.IC_SCORE)
    assert select_linkage_feature(contribution, narrow_ic) is Feature.CONTRIBUTION_PCT


def test_select_linkage_feature_tie_and_flip():
    contribution = summarize(records_from([0.0, 50.0]), Feature.CONTRIBUTION_PCT)
    equal_ic = summarize(records_from([10.0, 60.0], ic=True), Feature.IC_SCORE)
    assert select_linkage_feature(contribution, equal_ic) is Feature.CONTRIBUTION_PCT

    wide_ic = summarize(records_from([0.0, 90.0], ic=True), Feature.IC_SCORE)
    assert select_linkage_feature(contribution, wide_ic) is Feature.IC_SCORE


def test_histogram_csv():
    summary = summarize(records_from([0.0, 100.0]), Feature.CONTRIBUTION_PCT, n_bins=2)
    lines = histogram_csv_bytes(summary).decode().strip().split("\n")
    assert lines[0] == "bin_lower,bin_upper,count"
    assert lines[1] == "0.0,50.0,1"
    assert lines[2] == "50.0,100.0,1"


def test_summary_json_block():
    contribution = summarize(records_from([0.0, 100.0]), Feature.CONTRIBUTION_PCT)
    ic = summarize(records_from([1.0, 2.0], ic=True), Feature.IC_SCORE)
    payload = json.loads(
        summaries_to_json_bytes([contribution, ic], notes={"linkage_feature": "contribution_pct"})
    )
    assert payload["contribution_pct"]["mean"] == 50.0
    assert payload["ic_score"]["count"] == 2
    assert payload["notes"] == {"linkage_feature": "contribution_pct"}
    for field in ("count", "mean", "std_dev", "variance", "min", "max", "n_bins"):
        assert field in payload["contribution_pct"]
