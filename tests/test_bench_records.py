"""Each committed benchmark summary recomputes from the records beside it.

A BENCH_*.json file at the repository root holds the per-run records of a
parent and a change, ten seeds each, and a summary of every end-to-end
metric: both medians, the parent's interquartile range, the number of
seed pairs the change won, and in some files each side's range.  The
summary was written by hand from the records; this test recomputes it, to
the file's rounding, so that a summary and its records cannot drift apart.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))

# Decimal places of each file's summary, and the statistics.quantiles
# method its parent_iqr was computed with; files not named use the defaults.
DIGITS = {"BENCH_17_homology.json": 4, "BENCH_18_table.json": 4}
IQR_METHOD = {"BENCH_26_homology.json": "inclusive", "BENCH_27_homology.json": "inclusive"}


def seed_of(record):
    return record["seed"] if "seed" in record else record["meta"]["seed"]


def values(records, metric):
    return [record["result"]["metrics"][metric]["value"] for record in records]


def test_every_summary_file_is_checked():
    assert {path.name for path in FILES} >= set(DIGITS) | set(IQR_METHOD)
    assert len(FILES) >= 6


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_summary_recomputes_from_the_records(path):
    bench = json.loads(path.read_text())
    digits = DIGITS.get(path.name, 6)
    parent, change = bench["records"]["parent"], bench["records"]["change"]
    assert len(parent) == len(change)
    assert bench["seeds"] == [seed_of(record) for record in parent]
    assert bench["all_correct"] == all(
        record["result"]["correct"] and record["result"]["failed"] == 0
        for record in parent + change)
    change_by_seed = {seed_of(record): record for record in change}
    paired = [change_by_seed[seed_of(record)] for record in parent]
    for metric, summary in bench["summary"].items():
        before, after = values(parent, metric), values(paired, metric)
        assert summary["parent_median"] == round(statistics.median(before), digits), metric
        assert summary["change_median"] == round(statistics.median(after), digits), metric
        q1, _, q3 = statistics.quantiles(
            before, n=4, method=IQR_METHOD.get(path.name, "exclusive"))
        assert summary["parent_iqr"] == round(q3 - q1, digits), metric
        lower = summary["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(before, after))
        assert summary["change_wins"] == f"{wins}/{len(before)}", metric
        for side, side_values in (("parent", before), ("change", after)):
            if f"{side}_range" in summary:
                assert summary[f"{side}_range"] == [
                    round(min(side_values), digits), round(max(side_values), digits)], metric
