"""Lazy campaign set-up: the background pool is built only when a run needs it.

Every campaign path resolves its background through
:class:`repro.core.experiment.CampaignBackground`, which builds the pool
on the first draw: the scenarios up to the last one the campaign's
samples read are drawn, but only those read (its drawn set) get a fluid
solve.
A queue coordinator solves its tasks' drawn set and publishes it; its
workers load it.  These tests count :meth:`BackgroundModel.build_scenario` calls and pool
``solve_fluid`` calls per process (fork children included, through
pid-tagged log files) on each path, and check that the CLI never imports
``scipy`` unless a density is computed, that each command loads only the
modules it runs, and that ``-j`` fork children import nothing.
"""

import multiprocessing as mp
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import MILC
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD3
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    campaign_fingerprint,
    drawn_slots,
    run_campaign,
)
from repro.core.pipeline import run_pipeline
from repro.dist import DistDispatcher, DistWorker, WorkQueue
from repro.scheduler import background
from repro.scheduler.background import BackgroundModel
from repro.service import RunRecordStore, entry_key, run_campaign_cached
from repro.topology.pathcache import path_cache_stats
from repro.topology.systems import mini
from repro.util import derive_rng

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

POOL = 3
#: the pool slots the two samples of ``_cfg()`` read
DRAWN = {1, 2}
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg():
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), samples=2, seed=11,
        scenario_pool=POOL,
    )


# The 4-group ``mini`` pool places no jobs, so solves are counted on 8
# groups, where ``_cfg8()``'s drawn slots (also {1, 2}) hold jobs.
@pytest.fixture(scope="module")
def top8():
    return mini(n_groups=8)


def _cfg8():
    return replace(_cfg(), seed=2)


def _dicts(records):
    return [ckpt.record_to_dict(r) for r in records]


class CallLog:
    """Calls by pid, appended to a file so that forked children's calls
    are counted too."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def calls(self) -> list[list[str]]:
        """One ``[pid, note]`` per call."""
        if not self.path.exists():
            return []
        return [line.split(" ") for line in self.path.read_text().splitlines()]

    def counts(self) -> Counter:
        return Counter(int(pid) for pid, _ in self.calls())

    def total(self) -> int:
        return sum(self.counts().values())

    def reset(self) -> None:
        self.path.unlink(missing_ok=True)


def _counted(log: CallLog, real, note=lambda *args: ""):
    def counted(*args, **kwargs):
        with open(log.path, "a") as f:
            f.write(f"{os.getpid()} {note(*args)}\n")
        return real(*args, **kwargs)

    return counted


@pytest.fixture
def builds(tmp_path, monkeypatch):
    log = CallLog(tmp_path / "builds.log")
    monkeypatch.setattr(
        BackgroundModel, "build_scenario", _counted(log, BackgroundModel.build_scenario)
    )
    return log


@pytest.fixture
def solves(tmp_path, monkeypatch):
    """Fluid solves of pool scenarios (the pool module's ``solve_fluid``),
    each noted with its flow count."""
    log = CallLog(tmp_path / "solves.log")
    monkeypatch.setattr(background, "solve_fluid", _counted(
        log, background.solve_fluid, note=lambda top, flows, *rest: flows.n
    ))
    return log


def _all_have_flows(solves: CallLog) -> bool:
    return all(int(n) > 0 for _, n in solves.calls())


@pytest.fixture(scope="module")
def serial(top, tmp_path_factory):
    """Records and checkpoint bytes of the plain serial campaign."""
    path = tmp_path_factory.mktemp("serial") / "ck.jsonl"
    records = run_campaign(top, _cfg(), jobs=1, checkpoint_path=str(path))
    return _dicts(records), path.read_bytes()


@pytest.fixture(scope="module")
def serial8(top8, tmp_path_factory):
    """Records and checkpoint bytes of the plain serial campaign on 8 groups."""
    path = tmp_path_factory.mktemp("serial8") / "ck.jsonl"
    records = run_campaign(top8, _cfg8(), jobs=1, checkpoint_path=str(path))
    return _dicts(records), path.read_bytes()


class TestPoolBuiltOnlyWhenNeeded:
    def test_cold_serial_builds_the_pool_once(self, top, builds, serial):
        records = run_campaign(top, _cfg(), jobs=1)
        assert _dicts(records) == serial[0]
        assert builds.counts() == {os.getpid(): POOL}

    def test_cold_serial_solves_only_the_drawn_set(self, top8, solves, serial8):
        assert drawn_slots(top8, _cfg8()) == DRAWN
        solves.reset()
        records = run_campaign(top8, _cfg8(), jobs=1)
        assert _dicts(records) == serial8[0]
        assert solves.counts() == {os.getpid(): len(DRAWN)}
        assert _all_have_flows(solves)

    def test_cold_pool_build_skips_unread_path_tables(self, top8, solves):
        # a drawn slot builds its minimal and Valiant tables; an unread
        # slot only makes their draws (every slot of this pool has flows)
        cfg = _cfg8()
        drawn = drawn_slots(top8, cfg)
        assert drawn == {1, 2}
        full = {}
        BackgroundModel(top8).solve_pool(
            derive_rng(cfg.seed, "bgpool", cfg.app.name, cfg.n_nodes),
            list(range(POOL)), full.__setitem__, reserve_nodes=cfg.n_nodes,
        )
        assert len(full) == POOL and all(s.n_jobs > 0 for s in full.values())
        solves.reset()
        before = path_cache_stats()["misses"]
        CampaignBackground(top8, cfg).build()
        assert path_cache_stats()["misses"] - before == 2 * len(drawn)
        assert solves.counts() == {os.getpid(): len(drawn)}
        assert _all_have_flows(solves)

    def test_fully_resumed_serial_builds_nothing(
        self, top, builds, serial, tmp_path
    ):
        ck = tmp_path / "ck.jsonl"
        run_campaign(top, _cfg(), jobs=1, checkpoint_path=str(ck))
        builds.reset()
        records = run_campaign(
            top, _cfg(), jobs=1, checkpoint_path=str(ck), resume=True
        )
        assert builds.total() == 0
        assert _dicts(records) == serial[0]
        assert ck.read_bytes() == serial[1]

    def test_warm_cached_replay_builds_nothing(
        self, top, builds, serial, tmp_path
    ):
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store)
        assert builds.total() == POOL
        builds.reset()
        ck = tmp_path / "warm.jsonl"
        out = run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(ck))
        assert out.misses == 0
        assert builds.total() == 0
        assert ck.read_bytes() == serial[1]

    def test_mixed_cached_campaign_builds_the_pool_once(
        self, top, builds, serial, tmp_path
    ):
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store)
        key = entry_key(campaign_fingerprint(top, _cfg()), 1, "AD3")
        (store.entries_dir / f"{key}.json").unlink()
        builds.reset()
        ck = tmp_path / "mixed.jsonl"
        out = run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(ck))
        assert (out.hits, out.misses) == (3, 1)
        assert builds.counts() == {os.getpid(): POOL}
        assert ck.read_bytes() == serial[1]

    def test_fork_pool_builds_in_the_parent_only_when_forking(
        self, top8, builds, solves, serial8, tmp_path
    ):
        ck = tmp_path / "ck.jsonl"
        builds.reset()
        solves.reset()
        records = run_campaign(top8, _cfg8(), jobs=2, checkpoint_path=str(ck))
        assert _dicts(records) == serial8[0]
        assert builds.counts() == {os.getpid(): POOL}
        # the parent solves the drawn set once; its children solve none
        assert solves.counts() == {os.getpid(): len(DRAWN)}
        assert _all_have_flows(solves)
        # nothing left to fork for: no pool at all
        builds.reset()
        records = run_campaign(
            top8, _cfg8(), jobs=2, checkpoint_path=str(ck), resume=True
        )
        assert _dicts(records) == serial8[0]
        assert builds.total() == 0

    def test_queue_coordinator_solves_the_drawn_set_and_the_worker_none(
        self, top8, solves, serial8, tmp_path
    ):
        qdir = tmp_path / "queue"
        ck = tmp_path / "dist.jsonl"
        solves.reset()
        worker = mp.get_context("fork").Process(
            target=lambda: DistWorker(
                WorkQueue(str(qdir)), owner="w:1", poll=0.05
            ).run()
        )
        worker.start()
        try:
            backend = DistDispatcher(WorkQueue(qdir), fallback_after=120.0, poll=0.05)
            records = run_pipeline(top8, _cfg8(), backend, checkpoint_path=str(ck)).records
        finally:
            worker.join(timeout=60)
            if worker.is_alive():
                worker.kill()
        assert _dicts(records) == serial8[0]
        assert ck.read_bytes() == serial8[1]
        # the coordinator solves and publishes the drawn set once; the
        # worker loads every slot and solves none
        assert solves.counts() == {os.getpid(): len(DRAWN)}
        assert _all_have_flows(solves)
        assert worker.exitcode == 0


def _python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


class TestLazyScipy:
    def test_importing_the_cli_skips_scipy(self):
        proc = _python(
            "-c", "import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_setup_only_compare_skips_scipy(self, tmp_path):
        proc = _python(
            "-X", "importtime", "-m", "repro", "compare", "--system", "mini",
            "--nodes", "32", "--samples", "0",
            "--checkpoint", str(tmp_path / "ck.jsonl"),
        )
        assert proc.returncode == 0, proc.stderr
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "repro.cli" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]


def _imported(proc: subprocess.CompletedProcess) -> set[str]:
    """Modules a ``python -X importtime`` process imported."""
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _loaded(imported: set[str], names: tuple[str, ...]) -> list[str]:
    """The ``names`` (packages include their submodules) in ``imported``."""
    return sorted(
        m for m in imported for n in names if m == n or m.startswith(n + ".")
    )


class TestModuleSets:
    """Each command imports only the code it runs (docs/PERFORMANCE.md,
    "Start-up")."""

    #: the commands as written: $REPRO_JOBS > 1 would select the fork pool
    ENV = {k: v for k, v in os.environ.items() if k != "REPRO_JOBS"}

    #: what only a run executes: the solver, path tables, scheduler, MPI
    #: patterns, and every app but the campaign's own (MILC)
    ENGINE = (
        "repro.network.fluid", "repro.topology.paths", "repro.topology.pathcache",
        "repro.guard.invariants", "repro.scheduler.background",
        "repro.scheduler.workload", "repro.scheduler.placement",
        "repro.scheduler.jobs", "repro.mpi.patterns", "repro.mpi.collectives",
        "repro.mpi.env", "repro.apps.hacc", "repro.apps.nek5000",
        "repro.apps.qbox", "repro.apps.rayleigh", "repro.apps.synthetic",
    )

    SETUP_UNUSED = ENGINE + (
        "http.server", "ssl", "scipy", "repro.network.packet_sim",
        "repro.service", "repro.dist", "repro.parallel",
        "repro.telemetry.exporter", "repro.telemetry.report",
        "repro.telemetry.stream", "repro.telemetry.top", "repro.chaos.schedule",
        "repro.core.facility", "repro.core.ensembles", "repro.core.advisor",
        "repro.core.calibration",
    )

    def test_setup_only_compare(self, tmp_path):
        proc = _python(
            "-X", "importtime", "-m", "repro", "compare", "--system", "mini",
            "--nodes", "32", "--samples", "0",
            "--checkpoint", str(tmp_path / "ck.jsonl"), env=self.ENV,
        )
        assert proc.returncode == 0, proc.stderr
        imported = _imported(proc)
        assert {"repro.cli", "repro.core.experiment", "numpy"} <= imported
        assert _loaded(imported, self.SETUP_UNUSED) == []

    def test_cached_replay_loads_no_engine(self, tmp_path):
        compare = ["-m", "repro", "compare", "--system", "mini", "--nodes", "32",
                   "--samples", "2", "--seed", "11", "--cache", str(tmp_path / "store")]
        fill = _python(*compare, env=self.ENV)
        assert "0 hit(s)  4 miss(es)" in fill.stdout, fill.stderr
        proc = _python(
            "-X", "importtime", *compare, "--checkpoint", str(tmp_path / "ck.jsonl"),
            env=self.ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "4 hit(s)  0 miss(es)" in proc.stdout
        imported = _imported(proc)
        assert {"repro.service.executor", "repro.apps.milc"} <= imported
        assert _loaded(imported, self.ENGINE) == []

    def test_queue_coordinator_loads_no_engine(self, tmp_path):
        """A coordinator with no pool slot to publish: a ``--samples 0``
        campaign, and an all-hit ``--cache`` replay."""
        qdir = str(tmp_path / "queue")
        env = {**self.ENV, "PYTHONPATH": str(SRC)}
        coordinator = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "compare", "--system",
             "mini", "--nodes", "32", "--samples", "0", "--seed", "11", "--queue", qdir],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            worker = _python("-m", "repro", "worker", "--queue", qdir, "--poll", "0.05",
                             env=self.ENV)
        finally:
            out, err = coordinator.communicate(timeout=120)
        assert worker.returncode == 0, worker.stderr
        assert "committed=0" in worker.stdout
        assert coordinator.returncode == 0, err
        imported = _imported(subprocess.CompletedProcess(coordinator.args, 0, out, err))
        assert "repro.dist.coordinator" in imported
        assert _loaded(imported, self.ENGINE) == []

        compare = ["-m", "repro", "compare", "--system", "mini", "--nodes", "32",
                   "--samples", "2", "--seed", "11", "--cache", str(tmp_path / "store"),
                   "--queue", str(tmp_path / "replay")]
        fill = _python(*compare[:-2], env=self.ENV)
        assert "0 hit(s)  4 miss(es)" in fill.stdout, fill.stderr
        proc = _python("-X", "importtime", *compare, env=self.ENV)
        assert proc.returncode == 0, proc.stderr
        assert "4 hit(s)  0 miss(es)" in proc.stdout
        assert _loaded(_imported(proc), self.ENGINE) == []

    def test_report_skips_numpy(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"ev":"campaign.start","t":0.0}\n')
        proc = _python(
            "-X", "importtime", "-m", "repro", "report", str(trace), env=self.ENV
        )
        assert proc.returncode == 0, proc.stderr
        imported = _imported(proc)
        assert "repro.telemetry.report" in imported
        assert _loaded(imported, ("numpy",)) == []

    def test_worker_skips_the_service(self, tmp_path):
        qdir = str(tmp_path / "queue")
        env = {**self.ENV, "PYTHONPATH": str(SRC)}
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "compare", "--system", "mini",
             "--nodes", "32", "--samples", "1", "--seed", "11", "--queue", qdir],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            proc = _python(
                "-X", "importtime", "-m", "repro", "worker", "--queue", qdir,
                "--poll", "0.05", env=self.ENV,
            )
        finally:
            coordinator.communicate(timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "committed=2" in proc.stdout
        imported = _imported(proc)
        assert "repro.dist.worker" in imported
        # the pool slots it loads are store entries: of the service, it
        # loads the store's entry codec and nothing else
        assert _loaded(imported, ("repro.service", "http.server")) == [
            "repro.service", "repro.service.store",
        ]


FORK_PROBE = """
import functools, os, sys
import repro.cli
from repro.parallel import campaign

log = sys.argv[1]
at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
real = campaign._run_task


@functools.wraps(real)
def _run_task(task):
    result = real(task)
    new = sorted(set(sys.modules) - at_fork)
    with open(log, "a") as f:
        f.write(f"{os.getpid()} {' '.join(new)}\\n")
    return result


campaign._run_task = _run_task
sys.exit(repro.cli.main(sys.argv[2:]))
"""


def test_fork_children_import_nothing(tmp_path):
    """The ``-j`` parent loads everything its workers run before it forks."""
    log = tmp_path / "imports.log"
    proc = _python(
        "-c", FORK_PROBE, str(log), "compare", "--system", "mini", "--nodes",
        "32", "--samples", "2", "--seed", "11", "-j", "2",
    )
    assert proc.returncode == 0, proc.stderr
    lines = log.read_text().splitlines()
    assert len(lines) == 4  # one per run
    assert [line.split(" ", 1)[1] for line in lines] == [""] * 4
