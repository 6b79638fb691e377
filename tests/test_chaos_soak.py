"""Chaos soaks: whole campaigns under a failure schedule.

These run real (tiny) campaigns in forked children with failpoints
active, restart on injected crashes, and assert the standing
invariants — the same harness `repro chaos` and the CI chaos leg use.
"""

import pytest

from repro.apps import MILC
from repro.chaos import ChaosSpecError, deactivate
from repro.chaos.runner import run_soak, verify_replay
from repro.core.biases import AD0, AD3
from repro.core.experiment import CampaignConfig
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


@pytest.fixture(autouse=True)
def _no_leftover_schedule():
    deactivate()
    yield
    deactivate()


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 2)
    kw.setdefault("seed", 11)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), scenario_pool=4, **kw
    )


def test_store_heavy_soak_survives_crashes_and_enospc(top, tmp_path):
    report = run_soak(
        top,
        _cfg(),
        spec="checkpoint.append:crash:at=3; store.commit.pre_rename:enospc:p=0.3",
        seed=2021,
        workdir=tmp_path,
    )
    assert report.ok, report.format()
    assert report.crashes >= 1  # the at=3 crash definitely fired
    assert report.attempts == report.crashes + report.io_failures + 1
    # the headline invariant: survivor bytes == clean serial bytes
    names = [name for name, _, _ in report.invariants]
    assert "checkpoint byte-identical to clean serial" in names


def test_soak_replays_identically_from_seed_and_spec(top, tmp_path):
    first, second, same = verify_replay(
        top,
        _cfg(samples=1),
        spec="checkpoint.append:crash:at=2; store.get.read:eio:p=0.5",
        seed=7,
        workdir=tmp_path,
    )
    assert first.ok, first.format()
    assert second.ok, second.format()
    assert same, "two soaks from the same (seed, spec) diverged"
    assert first.fired == second.fired


def test_queue_soak_holds_queue_invariants(top, tmp_path):
    report = run_soak(
        top,
        _cfg(samples=1),
        spec="queue.commit.post_tmp:torn:p=0.4; queue.commit.link:eio:p=0.2",
        seed=7,
        workdir=tmp_path,
        queue=True,
    )
    assert report.ok, report.format()
    names = [name for name, _, _ in report.invariants]
    assert "queue results complete and owned" in names


def test_queue_soak_owns_results_committed_before_a_crash(top, tmp_path):
    """A crash after the local fallback committed results: the resumed
    epoch's manifest lists only its misses, yet every result committed
    by the earlier epoch still names a task of the campaign."""
    report = run_soak(
        top,
        _cfg(),
        spec="checkpoint.append:crash:at=3",
        seed=2021,
        workdir=tmp_path,
        queue=True,
    )
    assert report.ok, report.format()
    assert report.crashes >= 1
    owned = [held for name, held, _ in report.invariants if name.startswith("queue")]
    assert owned == [True]

def test_total_store_outage_degrades_without_failing_the_campaign(top, tmp_path):
    """Every cache put fails (ENOSPC on each commit) — the campaign must
    still complete in one attempt: put loss degrades, never aborts."""
    report = run_soak(
        top,
        _cfg(samples=1),
        spec="store.commit.pre_rename:enospc",
        seed=3,
        workdir=tmp_path,
    )
    assert report.completed, report.format()
    assert report.attempts == 1
    assert report.io_failures == 0
    # checkpoint identical even though the cache captured nothing
    ckpt_ok = [held for name, held, _ in report.invariants if "byte-identical" in name]
    assert ckpt_ok == [True]


def test_soak_rejects_a_typo_before_running_anything(top, tmp_path):
    with pytest.raises(ChaosSpecError):
        run_soak(top, _cfg(), spec="store.comit.*:eio", seed=1, workdir=tmp_path)
    assert not (tmp_path / "reference.jsonl").exists()
