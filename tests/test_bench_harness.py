"""The benchmark harness runs the CLI's campaigns.

A figure benchmark's campaign and ``repro compare`` with the same flags
must write the same checkpoint bytes, so every number in EXPERIMENTS.md
can be regenerated (and checkpointed, cached or queued) from the CLI.
"""

import sys
from pathlib import Path

from repro.apps import MILC
from repro.cli import main
from repro.core import checkpoint as ckpt

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _harness import cached_campaign  # noqa: E402


def test_harness_campaign_is_the_cli_campaign(tmp_path, capsys):
    path = tmp_path / "ck.jsonl"
    argv = [
        "compare", "--system", "theta", "--app", "milc", "--nodes", "256",
        "--samples", "2", "--seed", "2021", "--checkpoint", str(path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    header, *lines = path.read_text().splitlines()
    recs = cached_campaign(MILC(), samples=2)
    assert [ckpt.encode_record(r) for r in recs] == lines
