"""Each repro CLI process runs numpy's BLAS on one thread.

No engine calls BLAS, but OpenBLAS starts a worker thread per extra CPU
when numpy loads.  ``repro.cli`` sets ``OPENBLAS_NUM_THREADS=1`` before
anything can load numpy, unless the user set a count of their own
(docs/PERFORMANCE.md, "One BLAS thread per process").  The library,
imported without the CLI, leaves the environment alone.

Threads are counted in ``/proc/self/task`` of a fresh interpreter whose
environment is built here: once any test has imported ``repro.cli``, the
pytest process itself carries the setting.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


pytestmark = [
    pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc"),
    pytest.mark.skipif(_cpus() < 2, reason="OpenBLAS starts no extra thread on one CPU"),
]

#: prints the process's thread count after the CLI and numpy are loaded
CLI_THREADS = "import os, repro.cli, numpy; print(len(os.listdir('/proc/self/task')))"


def _run(probe: str, **user_vars: str) -> str:
    """``probe``'s stdout, in a fresh process with none of ``THREAD_VARS``
    set but ``user_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(user_vars, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_process_runs_one_blas_thread():
    assert _run(CLI_THREADS) == "1"


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_count_is_kept(var):
    assert _run(CLI_THREADS, **{var: "2"}) == "2"


def test_library_import_leaves_the_environment_alone():
    probe = (
        "import os, sys; before = dict(os.environ); "
        "import repro; repro.CampaignConfig; "
        "print(dict(os.environ) == before, 'repro.cli' in sys.modules)"
    )
    assert _run(probe) == "True False"
