"""ResultFrame tests: construction, relational operations, and exports."""

import json

import pytest

from repro.api.frame import ResultFrame, mean
from repro.api.sweep import SweepResult, SweepRow


def sample_frame() -> ResultFrame:
    return ResultFrame.from_records(
        [
            {"scenario": "geth", "ratio": 1.0, "eta": 0.1, "trial": 0},
            {"scenario": "geth", "ratio": 1.0, "eta": 0.2, "trial": 1},
            {"scenario": "geth", "ratio": 10.0, "eta": 0.6, "trial": 0},
            {"scenario": "hms", "ratio": 1.0, "eta": 0.9, "trial": 0},
            {"scenario": "hms", "ratio": 10.0, "eta": 1.0, "trial": 0},
        ]
    )


class TestConstruction:
    def test_from_records_preserves_order_and_fills_missing(self):
        frame = ResultFrame.from_records([{"a": 1}, {"b": 2}])
        assert frame.column_names == ["a", "b"]
        assert frame.column("a") == [1, None]
        assert frame.column("b") == [None, 2]

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            ResultFrame({"a": [1, 2], "b": [1]})

    def test_from_sweep_flattens_tags_and_headline_metrics(self):
        rows = [
            SweepRow(
                tags={"scenario": "geth", "trial": 0},
                summary={
                    "efficiency": 0.5,
                    "blocks_produced": 3,
                    "simulated_seconds": 60.0,
                    "reports": {},
                },
            )
        ]
        frame = ResultFrame.from_sweep(SweepResult(rows=rows))
        assert len(frame) == 1
        row = frame.row(0)
        assert row["scenario"] == "geth"
        assert row["efficiency"] == 0.5
        assert row["summary"]["blocks_produced"] == 3

    def test_unknown_column_raises_with_the_available_names(self):
        with pytest.raises(KeyError, match="available"):
            sample_frame().column("nope")


class TestRelationalOperations:
    def test_filter_by_equality_and_predicate_chain(self):
        frame = sample_frame()
        geth = frame.filter(scenario="geth")
        assert len(geth) == 3
        good = geth.filter(lambda row: row["eta"] >= 0.2)
        assert [row["eta"] for row in good] == [0.2, 0.6]

    def test_filter_unknown_column_raises(self):
        with pytest.raises(KeyError):
            sample_frame().filter(nope=1)

    def test_select_and_drop(self):
        frame = sample_frame()
        assert frame.select("eta", "scenario").column_names == ["eta", "scenario"]
        assert "eta" not in frame.drop("eta").column_names

    def test_derive_appends_computed_columns(self):
        frame = sample_frame().derive(pct=lambda row: row["eta"] * 100)
        assert frame.column("pct")[0] == pytest.approx(10.0)
        # the receiver is untouched
        assert "pct" not in sample_frame().column_names

    def test_pivot_builds_the_wide_table(self):
        wide = sample_frame().pivot(index="ratio", columns="scenario", values="eta")
        assert wide.column_names == ["ratio", "geth", "hms"]
        row = wide.filter(ratio=1.0).row(0)
        assert row["geth"] == pytest.approx(0.15)
        assert row["hms"] == pytest.approx(0.9)

    def test_mean_with_filter_and_empty_selection(self):
        frame = sample_frame()
        assert frame.mean("eta", scenario="hms") == pytest.approx(0.95)
        assert frame.mean("eta", scenario="nonexistent") is None

    def test_unique_preserves_first_appearance_order(self):
        assert sample_frame().unique("ratio") == [1.0, 10.0]


class TestAggregators:
    def test_helpers_skip_none_and_never_divide_by_zero(self):
        assert mean([]) is None
        assert mean([1.0, None, 3.0]) == pytest.approx(2.0)


class TestExport:
    def test_json_round_trips_sorted(self, tmp_path):
        path = tmp_path / "frame.json"
        text = sample_frame().to_json(path)
        assert path.read_text() == text
        assert json.loads(text)[0]["scenario"] == "geth"

    def test_csv_and_markdown_drop_structured_columns(self, tmp_path):
        frame = sample_frame().derive(summary=lambda row: {"nested": True})
        csv_text = frame.to_csv(tmp_path / "frame.csv")
        md_text = frame.to_markdown(tmp_path / "frame.md")
        assert "summary" not in csv_text.splitlines()[0]
        assert "summary" not in md_text.splitlines()[0]
        assert csv_text.splitlines()[0] == "scenario,ratio,eta,trial"
        assert md_text.startswith("| scenario | ratio | eta | trial |")

    def test_exports_are_deterministic(self):
        assert sample_frame().to_json() == sample_frame().to_json()
        assert sample_frame().to_csv() == sample_frame().to_csv()
