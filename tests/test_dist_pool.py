"""A queue coordinator publishes the background pool; its workers load it.

The coordinator solves the pool slots its tasks read, in the order they
first read them, and publishes each to ``pool/<slot>`` under a renewed
``pool`` lease.  A worker loads a published slot, waits for one under a
live lease, and otherwise builds the pool itself.  Every case runs on
the 8-group ``mini`` system, whose drawn slots place jobs (the default
4-group pool is empty), against real ``repro worker`` processes, and
the merged checkpoint must equal the serial bytes.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.apps import MILC
from repro.core.experiment import CampaignConfig, run_campaign, sample_slot
from repro.core.pipeline import run_pipeline
from repro.dist import DistDispatcher, WorkQueue, coordinator
from repro.dist.queue import Doorbell
from repro.service.store import slot_key
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

SRC = str(Path(repro.__file__).resolve().parents[1])

#: the CLI with an 8-group ``mini`` preset, counting pool solves
DRIVER = r"""
import functools, sys
import repro.cli
from repro.scheduler import background
from repro.topology.systems import mini

repro.cli.SYSTEMS["mini8"] = functools.partial(mini, n_groups=8)
real = background.solve_fluid
solves = []


def counted(*args, **kwargs):
    solves.append(1)
    return real(*args, **kwargs)


background.solve_fluid = counted
try:
    rc = repro.cli.main(sys.argv[1:])
finally:
    print(f"pool solves: {len(solves)}", file=sys.stderr)
sys.exit(rc)
"""

#: a queue coordinator (1 s leases) that dies by SIGKILL right after it
#: publishes its first pool slot
KILLED_COORDINATOR = r"""
import os, signal, sys
from repro.apps import MILC
from repro.core.experiment import CampaignConfig
from repro.core.pipeline import run_pipeline
from repro.dist import DistDispatcher, WorkQueue
from repro.topology.systems import mini

real = WorkQueue.publish_slot


def publish_then_die(self, *args):
    real(self, *args)
    os.kill(os.getpid(), signal.SIGKILL)


WorkQueue.publish_slot = publish_then_die
qdir, ck = sys.argv[1:]
cfg = CampaignConfig(app=MILC(), n_nodes=32, samples=3, seed=3)
backend = DistDispatcher(WorkQueue(qdir, ttl=1.0), fallback_after=600.0, poll=0.05)
run_pipeline(mini(n_groups=8), cfg, backend, checkpoint_path=ck)
"""

CLI = ["--system", "mini8", "--nodes", "32", "--samples", "3", "--seed", "3"]
#: the slots the campaign's samples read, in first-read order
ORDER = [8, 10, 6]


def _cfg():
    return CampaignConfig(app=MILC(), n_nodes=32, samples=3, seed=3)


@pytest.fixture(scope="module")
def top():
    return mini(n_groups=8)


@pytest.fixture(scope="module")
def serial(top, tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "ck.jsonl"
    run_campaign(top, _cfg(), jobs=1, checkpoint_path=str(path))
    return path.read_bytes()


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_JOBS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(*args: str, script: str = DRIVER) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> tuple[str, str]:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out, err


def _worker(qdir) -> subprocess.Popen:
    return _spawn("worker", "--queue", str(qdir), "--poll", "0.05")


def _pool_solves(err: str) -> int:
    return int(err.rsplit("pool solves: ", 1)[1].split()[0])


class _Coordinator(threading.Thread):
    """``run_pipeline`` on a :class:`DistDispatcher`, on a thread."""

    def __init__(self, top, qdir, ck) -> None:
        super().__init__(daemon=True)
        self.args = (top, _cfg(), DistDispatcher(WorkQueue(qdir), fallback_after=600.0, poll=0.05))
        self.ck = str(ck)
        self.error = None

    def run(self):
        try:
            run_pipeline(*self.args, checkpoint_path=self.ck)
        except BaseException as exc:  # surfaced by finish()
            self.error = exc

    def finish(self) -> None:
        self.join(timeout=120)
        assert not self.is_alive(), "coordinator did not complete"
        if self.error is not None:
            raise self.error


def _wait_until(cond, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def test_order_is_first_read(top):
    assert list(dict.fromkeys(sample_slot(top, _cfg(), i)[2] for i in range(3))) == ORDER


def test_worker_loads_every_slot(tmp_path):
    """The CLI coordinator solves the pool once; the worker solves none,
    and checkpoint and stdout equal the serial campaign's."""
    serial = _spawn("compare", *CLI, "--checkpoint", str(tmp_path / "serial.jsonl"))
    serial_out, _ = _finish(serial)
    qdir = tmp_path / "queue"
    coord = _spawn("compare", *CLI, "--checkpoint", str(tmp_path / "dist.jsonl"),
                   "--queue", str(qdir))
    worker = _worker(qdir)
    worker_out, worker_err = _finish(worker)
    coord_out, coord_err = _finish(coord)

    assert (tmp_path / "dist.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
    assert coord_out == serial_out
    assert "committed=6" in worker_out
    assert _pool_solves(coord_err) == len(ORDER)
    assert _pool_solves(worker_err) == 0

    q = WorkQueue(qdir)
    fp = q.load_manifest()["fingerprint"]
    for slot in ORDER:
        util, n_jobs, _ = q.read_slot(fp, slot)
        assert n_jobs > 0 and util.any()  # a real background, not an empty pool
    status = subprocess.run(
        [sys.executable, "-m", "repro", "queue-status", "--queue", str(qdir)],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert f"pool: {len(ORDER)}/{len(ORDER)} slots published" in status.stdout


def test_no_pool_lease_worker_builds_the_pool(top, serial, tmp_path, monkeypatch):
    """A coordinator that publishes nothing (one from before the pool was
    published): the worker builds the pool itself."""
    monkeypatch.setattr(coordinator, "_pool_order", lambda *args: [])
    qdir = tmp_path / "queue"
    coord = _Coordinator(top, qdir, tmp_path / "dist.jsonl")
    coord.start()
    worker_out, worker_err = _finish(_worker(qdir))
    coord.finish()
    assert (tmp_path / "dist.jsonl").read_bytes() == serial
    assert not WorkQueue(qdir).pool_lease_path.exists()
    assert "committed=6" in worker_out
    assert _pool_solves(worker_err) == len(ORDER)


def test_corrupt_slot_is_quarantined_and_the_pool_rebuilt(top, serial, tmp_path):
    qdir = tmp_path / "queue"
    q = WorkQueue(qdir)
    coord = _Coordinator(top, qdir, tmp_path / "dist.jsonl")
    coord.start()
    _wait_until(lambda: q.pool_status() == (len(ORDER), len(ORDER), False), "the pool")
    slot = q.pool_store._path(slot_key(q.load_manifest()["fingerprint"], ORDER[0]))
    data = bytearray(slot.read_bytes())
    data[-1] ^= 0x01
    slot.write_bytes(bytes(data))

    worker_out, worker_err = _finish(_worker(qdir))
    coord.finish()
    assert (tmp_path / "dist.jsonl").read_bytes() == serial
    assert not slot.exists()
    assert len(list(q.pool_store.quarantine_dir.glob(f"{slot.name}.*"))) == 1
    assert "committed=6" in worker_out
    assert _pool_solves(worker_err) == len(ORDER)


def test_coordinator_killed_mid_pool(top, serial, tmp_path):
    """The pool lease expires, the worker builds the pool and finishes
    every task, and a resumed coordinator merges them into the serial
    checkpoint."""
    qdir = tmp_path / "queue"
    ck = tmp_path / "dist.jsonl"
    coord = _spawn(str(qdir), str(ck), script=KILLED_COORDINATOR)
    worker = _worker(qdir)
    coord.communicate(timeout=120)
    assert coord.returncode == -signal.SIGKILL
    worker_out, worker_err = _finish(worker)
    assert "committed=6" in worker_out
    assert _pool_solves(worker_err) == len(ORDER)
    q = WorkQueue(qdir)
    assert q.pool_status() == (1, len(ORDER), False)

    backend = DistDispatcher(WorkQueue(qdir), fallback_after=600.0, poll=0.05)
    run_pipeline(top, _cfg(), backend, checkpoint_path=str(ck), resume=True)
    assert ck.read_bytes() == serial


def test_wait_slot_waits_only_under_a_live_lease(tmp_path):
    import numpy as np

    q = WorkQueue(tmp_path / "queue")
    fp = {"campaign": 1}
    util = np.linspace(0.0, 0.9, 7)
    assert q.wait_slot(fp, 3, poll=0.01) is None  # no lease: build it yourself
    lease = q.create({"fingerprint": fp}, [], pool=[3])
    threading.Timer(0.2, q.publish_slot, (fp, 3, util, 2, 0.25)).start()
    got, n_jobs, fill = q.wait_slot(fp, 3, poll=0.01)
    assert got.tobytes() == util.tobytes() and (n_jobs, fill) == (2, 0.25)
    q.release_pool(lease)
    assert q.wait_slot({"campaign": 2}, 3, poll=0.01) is None  # another campaign's


def test_queue_status_shows_a_pool_being_built(tmp_path, capsys):
    from repro.cli import main

    q = WorkQueue(tmp_path / "queue")
    q.create({"fingerprint": {}}, [], pool=[3, 1])
    assert main(["queue-status", "--queue", str(q.root)]) == 0
    assert "pool: building, 0/2 slots published" in capsys.readouterr().out


def test_doorbell_wakes_the_coordinator_at_once(tmp_path):
    q = WorkQueue(tmp_path)
    q.ring()  # no FIFO yet: a no-op
    bell = Doorbell(q.doorbell_path)
    try:
        threading.Timer(0.05, q.ring).start()
        t0 = time.monotonic()
        bell.wait(10.0)
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        bell.wait(0.1)  # drained: the next wait runs to its timeout
        assert time.monotonic() - t0 >= 0.09
    finally:
        bell.close()
    q.ring()  # nobody listening (ENXIO): still a no-op
