"""Tests for the monotone-feasibility bisection helper."""

import pytest
from bisection_oracle import BisectionResult, bisect_min_feasible
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, InfeasibleError


class TestBisection:
    def test_finds_threshold(self):
        threshold = 3.7

        def predicate(value):
            return value if value >= threshold else None

        result = bisect_min_feasible(predicate, lower=0.0, upper=10.0, relative_tolerance=1e-4)
        assert isinstance(result, BisectionResult)
        assert result.value == pytest.approx(threshold, rel=1e-3)
        assert result.witness == pytest.approx(result.value)

    def test_feasible_lower_bound_short_circuits(self):
        result = bisect_min_feasible(lambda v: "ok", lower=1.0, upper=10.0)
        assert result.value == 1.0
        assert result.iterations == 1

    def test_infeasible_upper_bound_raises(self):
        with pytest.raises(InfeasibleError):
            bisect_min_feasible(lambda v: None, lower=0.0, upper=5.0)

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            bisect_min_feasible(lambda v: v, lower=5.0, upper=1.0)

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigurationError):
            bisect_min_feasible(lambda v: v, lower=0.0, upper=1.0, relative_tolerance=0.0)

    def test_witness_comes_from_feasible_point(self):
        def predicate(value):
            return {"value": value} if value >= 2.0 else None

        result = bisect_min_feasible(predicate, lower=0.0, upper=8.0)
        assert result.witness["value"] >= 2.0 - 1e-6

    def test_max_iterations_respected(self):
        calls = []

        def predicate(value):
            calls.append(value)
            return value if value >= 1.0 else None

        bisect_min_feasible(predicate, lower=0.0, upper=100.0, max_iterations=5)
        # upper probe + lower probe + at most (5 - 1) bisection probes
        assert len(calls) <= 6

    @given(threshold=st.floats(min_value=0.01, max_value=99.0))
    @settings(max_examples=30, deadline=None)
    def test_result_is_feasible_and_close(self, threshold):
        def predicate(value):
            return value if value >= threshold else None

        result = bisect_min_feasible(predicate, lower=0.0, upper=100.0, relative_tolerance=1e-3)
        assert result.value >= threshold - 1e-9
        assert result.value <= max(threshold * 1.01, threshold + 0.2)
