"""EXPERIMENTS.md quotes the committed benchmark results, not stale runs.

Each checked row's "ours" cell names percentages by label (``flits
−18.0%``, ``P99.99 +11.2%``); every one must equal, at the precision
written, the change column of its ``benchmarks/results`` file.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
LABELLED_PCT = re.compile(r"(stalls/flits|flits|stalls|P[\d.]+) ([−+-]\d+(?:\.\d+)?)%")


def _ours(row: str) -> str:
    """The "ours" cell of the EXPERIMENTS.md table row for ``row``."""
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        if line.startswith(f"| {row} |"):
            return line.split("|")[3]
    raise AssertionError(f"no {row} row in EXPERIMENTS.md")


def _changes(results: str) -> dict[str, float]:
    """Label -> last-column percentage of a results file's first table."""
    out = {}
    for line in (RESULTS / results).read_text().splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[-1].endswith("%") and fields[-1][0] in "+-":
            out.setdefault(fields[0], float(fields[-1][:-1]))
    return out


@pytest.mark.parametrize(
    "row, results",
    [
        ("Fig. 13", "fig13_default_change.txt"),
        ("Fig. 14", "fig14_latency_percentiles.txt"),
    ],
)
def test_row_percentages_match_the_results_file(row, results):
    quoted = LABELLED_PCT.findall(_ours(row))
    assert len(quoted) >= 3, quoted
    changes = _changes(results)
    for label, text in quoted:
        text = text.replace("−", "-")
        decimals = len(text.split(".")[1]) if "." in text else 0
        assert label in changes, (row, label)
        assert f"{changes[label]:+.{decimals}f}" == text, (row, label, changes[label])
