"""The public API: every exported name resolves, the README quickstart
runs, and every subcommand answers ``--help``.

The package ``__init__`` files re-export lazily (:mod:`repro.util.lazy`),
so a name whose table entry points at the wrong module fails only when
it is read; these tests read them all.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = ["repro"] + [
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, name
    assert set(mod.__all__) <= set(dir(mod))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        repro.nosuch
    assert not hasattr(repro.core, "nosuch")


def test_lazy_exports_are_the_defining_objects():
    from repro.core.experiment import run_campaign
    from repro.telemetry.exporter import MetricsExporter

    assert repro.run_campaign is run_campaign
    assert repro.core.run_campaign is run_campaign
    from repro.telemetry import MetricsExporter as exported

    assert exported is MetricsExporter


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "'AD0': SampleStats(" in proc.stdout


def _subcommands() -> list[str]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return sorted(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_exits_0(command):
    proc = _python("-m", "repro", command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: repro {command}")
