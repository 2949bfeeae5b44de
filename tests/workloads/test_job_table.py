"""Tests for the Table 2 job-type table."""

import math

import pytest

from repro.exceptions import ConfigurationError, UnknownJobError
from repro.workloads import JobTypeSpec, default_job_type_table, job_type_name


@pytest.fixture(scope="module")
def table():
    return default_job_type_table()


class TestDefaultTable:
    def test_has_26_configurations(self, table):
        """Table 2 lists 26 model / batch-size configurations."""
        assert len(table) == 26

    def test_has_seven_models(self, table):
        assert set(table.models()) == {
            "resnet50",
            "resnet18",
            "a3c",
            "lstm",
            "transformer",
            "cyclegan",
            "recoder",
        }

    def test_batch_size_counts_match_table2(self, table):
        expected = {
            "resnet50": 4,
            "resnet18": 5,
            "a3c": 1,
            "lstm": 5,
            "transformer": 5,
            "cyclegan": 1,
            "recoder": 5,
        }
        for model, count in expected.items():
            assert len(table.types_for_model(model)) == count

    def test_names_are_unique(self, table):
        assert len(set(table.names)) == len(table.names)

    def test_lookup_by_name(self, table):
        spec = table.get("resnet50-bs64")
        assert spec.model == "resnet50"
        assert spec.batch_size == 64

    def test_unknown_name_raises(self, table):
        with pytest.raises(UnknownJobError):
            table.get("bert-bs32")

    def test_unknown_model_raises(self, table):
        with pytest.raises(UnknownJobError):
            table.types_for_model("bert")

    def test_contains(self, table):
        assert "a3c-bs4" in table
        assert "a3c-bs8" not in table


class TestCalibration:
    def test_resnet50_speedup_matches_figure1(self, table):
        """Figure 1a: ResNet-50 sees ~10x V100 over K80; A3C only ~2x."""
        resnet = table.get("resnet50-bs64")
        a3c = table.get("a3c-bs4")
        assert 8.0 <= resnet.speedup("v100") <= 11.0
        assert 1.5 <= a3c.speedup("v100") <= 2.5

    def test_k80_speedup_is_one(self, table):
        for spec in table:
            assert spec.speedup("k80") == 1.0

    def test_unknown_accelerator_speedup_raises(self, table):
        with pytest.raises(UnknownJobError):
            table.get("a3c-bs4").speedup("tpu")

    def test_all_speedups_at_least_one(self, table):
        for spec in table:
            assert spec.speedup("v100") >= spec.speedup("p100") >= 1.0

    def test_job_type_name_format(self):
        assert job_type_name("resnet50", 64) == "resnet50-bs64"


class TestSpecValidation:
    def _spec(self, **overrides):
        base = dict(
            model="m",
            batch_size=8,
            base_k80_throughput=1.0,
            speedups={"v100": 2.0, "p100": 1.5},
            compute_intensity=0.5,
            memory_gb=4.0,
            consolidated_scaling=0.9,
            unconsolidated_scaling=0.7,
        )
        base.update(overrides)
        return JobTypeSpec(**base)

    def test_valid_spec(self):
        assert self._spec().name == "m-bs8"

    def test_rejects_non_positive_base_throughput(self):
        with pytest.raises(ConfigurationError):
            self._spec(base_k80_throughput=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"base_k80_throughput": math.nan},
            {"base_k80_throughput": math.inf},
            {"memory_gb": math.nan},
            {"memory_gb": math.inf},
            {"speedups": {"v100": math.nan, "p100": 1.5}},
            {"speedups": {"v100": math.inf, "p100": 1.5}},
            {"speedups": {"v100": 2.0, "p100": -1.0}},
        ],
        ids=["nan-base", "inf-base", "nan-memory", "inf-memory", "nan-speedup", "inf-speedup",
             "negative-speedup"],
    )
    def test_rejects_non_finite_or_negative_calibration(self, overrides):
        """Such a spec used to pass construction and stall a continuous run (or fail deep
        in the throughput matrix): no job of the run could make progress."""
        with pytest.raises(ConfigurationError):
            self._spec(**overrides)

    def test_zero_speedup_marks_the_type_unrunnable(self):
        assert self._spec(speedups={"v100": 0.0, "p100": 1.5}).speedup("v100") == 0.0

    def test_rejects_out_of_range_compute_intensity(self):
        with pytest.raises(ConfigurationError):
            self._spec(compute_intensity=1.5)

    def test_rejects_unconsolidated_faster_than_consolidated(self):
        with pytest.raises(ConfigurationError):
            self._spec(consolidated_scaling=0.6, unconsolidated_scaling=0.9)

    def test_duplicate_names_rejected(self):
        from repro.workloads.job_table import JobTypeTable

        spec = self._spec()
        with pytest.raises(ConfigurationError):
            JobTypeTable([spec, spec])
