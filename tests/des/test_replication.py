"""Replication runner: reproducibility, aggregation, parallel equivalence."""

import numpy as np
import pytest

from repro.des.random_streams import StreamManager
from repro.des.replication import run_replications


def _model(streams: StreamManager, loc: float = 10.0) -> dict:
    """Toy model: one noisy metric plus its replication-identifying draw."""
    rng = streams.get("noise")
    return {"metric": loc + float(rng.normal()), "draw": float(rng.random())}


def _two_key_model(streams: StreamManager) -> dict:
    """Metric set depends on the replication's first draw -> inconsistent."""
    rng = streams.get("n")
    val = float(rng.random())
    if val < 0.5:
        return {"a": val}
    return {"a": val, "extra": 1.0}


class TestBasics:
    def test_summary_shape(self):
        s = run_replications(_model, n_replications=8, seed=1)
        assert s.n == 8
        assert set(s.means) == {"metric", "draw"}
        assert len(s.replications) == 8

    def test_reproducible_given_seed(self):
        a = run_replications(_model, n_replications=5, seed=42)
        b = run_replications(_model, n_replications=5, seed=42)
        assert a.means == b.means

    def test_replications_are_distinct(self):
        s = run_replications(_model, n_replications=5, seed=42)
        draws = s.metric_samples("draw")
        assert len(np.unique(draws)) == 5

    def test_mean_estimates_location(self):
        s = run_replications(_model, n_replications=100, seed=0, loc=3.0)
        assert s.means["metric"] == pytest.approx(3.0, abs=0.5)

    def test_ci_contains_mean(self):
        s = run_replications(_model, n_replications=30, seed=0)
        lo, hi = s.intervals["metric"]
        assert lo <= s.means["metric"] <= hi

    @pytest.mark.parametrize(
        "n, level, expected",
        [
            (10, 0.95, {"draw": (0.2438564166200805, 0.6006868833904124),
                        "metric": (9.349682251919873, 10.885744151988224)}),
            (4, 0.99, {"draw": (-0.4863322885935421, 1.3924379146416233),
                       "metric": (6.78960368009394, 13.830532462151556)}),
        ],
    )
    def test_seeded_intervals_pinned(self, n, level, expected):
        # values from scipy.stats.t.ppf; a change of quantile source shows here
        s = run_replications(_model, n_replications=n, seed=7, level=level)
        for name, (lo, hi) in expected.items():
            assert s.intervals[name] == (
                pytest.approx(lo, rel=1e-12),
                pytest.approx(hi, rel=1e-12),
            )

    def test_half_width_helpers(self):
        s = run_replications(_model, n_replications=30, seed=0)
        assert s.half_width("metric") > 0.0
        assert s.relative_half_width("metric") > 0.0

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            run_replications(_model, n_replications=0)

    def test_inconsistent_metrics_detected(self):
        with pytest.raises(ValueError):
            run_replications(_two_key_model, n_replications=20, seed=3)


class TestParallel:
    def test_parallel_equals_serial(self):
        serial = run_replications(_model, n_replications=6, seed=9, n_jobs=1)
        parallel = run_replications(_model, n_replications=6, seed=9, n_jobs=2)
        assert serial.means == parallel.means
        for a, b in zip(serial.replications, parallel.replications):
            assert a.index == b.index
            assert a.metrics == b.metrics
