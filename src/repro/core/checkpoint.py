"""JSONL campaign checkpointing: crash-tolerant sweeps.

A checkpoint file is one header line (the campaign's config fingerprint)
followed by one JSON object per completed run.  Records are appended as
they finish, so a killed campaign can be resumed with ``--resume``: runs
already present (status ``ok``) are loaded back verbatim and skipped;
everything else re-runs.  Because every run's RNG stream is derived
independently from ``(seed, app, n_nodes, sample, mode)``, skipping
completed runs cannot perturb the remaining ones — a resumed campaign
produces records identical to an uninterrupted run.

Floats survive the JSON round-trip exactly (``json`` emits
shortest-repr, which Python parses back to the same double), and counter
arrays are stored sparsely (most routers are zero in a local view).

A truncated final line — the signature of a crash mid-append — is
silently discarded; corruption anywhere else raises, as does a header
whose fingerprint disagrees with the resuming campaign's config.
"""

from __future__ import annotations

import errno
import json
import os
from typing import Any

import numpy as np

from repro.monitoring.autoperf import AutoPerfReport, MpiOpRecord
from repro.network.counters import TILE_CLASSES, CounterSnapshot
from repro.util import durable

_KIND = "campaign-checkpoint"
_VERSION = 1


class StoreUnavailableError(OSError):
    """Durable storage failed (ENOSPC/EIO) during a commit.

    The typed wrapper callers catch instead of bare ``OSError``: it
    names the operation that failed and guarantees the failed commit
    left no half-written scratch behind (tmp files are cleaned on the
    error path before this is raised).  Raised by checkpoint writes and
    :class:`repro.service.store.RunRecordStore` commits.
    """

    def __init__(self, op: str, exc: OSError) -> None:
        super().__init__(
            exc.errno if exc.errno is not None else errno.EIO,
            f"{op}: {exc.strerror or exc}",
            getattr(exc, "filename", None),
        )
        self.op = op


def _counters_to_dict(snap: CounterSnapshot) -> dict[str, Any]:
    n_routers = int(next(iter(snap.flits.values())).size)
    out: dict[str, Any] = {"n_routers": n_routers}
    for name, table in (("flits", snap.flits), ("stalls", snap.stalls)):
        sparse = {}
        for cls in TILE_CLASSES:
            idx = np.flatnonzero(table[cls])
            sparse[cls] = [idx.tolist(), table[cls][idx].tolist()]
        out[name] = sparse
    return out


def _counters_from_dict(d: dict[str, Any]) -> CounterSnapshot:
    n = int(d["n_routers"])

    def build(table: dict[str, Any]) -> dict[str, np.ndarray]:
        out = {}
        for cls in TILE_CLASSES:
            arr = np.zeros(n, dtype=np.float64)
            idx, vals = table[cls]
            arr[np.asarray(idx, dtype=np.int64)] = np.asarray(vals, dtype=np.float64)
            out[cls] = arr
        return out

    return CounterSnapshot(flits=build(d["flits"]), stalls=build(d["stalls"]))


def _report_to_dict(rep: AutoPerfReport) -> dict[str, Any]:
    return {
        "app": rep.app,
        "n_nodes": rep.n_nodes,
        "total_time": rep.total_time,
        "ops": {op: [r.calls, r.nbytes, r.time] for op, r in rep.ops.items()},
        "counters": None if rep.counters is None else _counters_to_dict(rep.counters),
    }


def _report_from_dict(d: dict[str, Any]) -> AutoPerfReport:
    return AutoPerfReport(
        app=d["app"],
        n_nodes=int(d["n_nodes"]),
        ops={
            op: MpiOpRecord(calls=c, nbytes=b, time=t)
            for op, (c, b, t) in d["ops"].items()
        },
        total_time=d["total_time"],
        counters=None if d["counters"] is None else _counters_from_dict(d["counters"]),
    )


def record_to_dict(rec: Any) -> dict[str, Any]:
    """Serialize a :class:`repro.core.experiment.RunRecord` to plain JSON.

    The ``series`` key is emitted only when the run carried a cadence
    series — records from unobserved campaigns keep the exact historical
    key set, so checkpoint files stay byte-identical with telemetry off.
    """
    out = {
        "app": rec.app,
        "mode": rec.mode,
        "n_nodes": rec.n_nodes,
        "placement": rec.placement,
        "groups": rec.groups,
        "runtime": rec.runtime,
        "report": _report_to_dict(rec.report),
        "background_intensity": rec.background_intensity,
        "sample_index": rec.sample_index,
        "status": rec.status,
        "error": rec.error,
        "attempts": rec.attempts,
        "solver_converged": rec.solver_converged,
        "solver_nonconverged_phases": rec.solver_nonconverged_phases,
        "solver_max_residual": rec.solver_max_residual,
        "solver_max_residual_mean": rec.solver_max_residual_mean,
        "solver_iterations": rec.solver_iterations,
    }
    series = getattr(rec, "series", None)
    if series is not None:
        out["series"] = series.to_dict()
    return out


def record_from_dict(d: dict[str, Any]) -> Any:
    """Rebuild a RunRecord from :func:`record_to_dict` output."""
    from repro.core.experiment import RunRecord  # cycle: experiment imports us
    from repro.telemetry.series import CounterSeries

    return RunRecord(
        app=d["app"],
        mode=d["mode"],
        n_nodes=int(d["n_nodes"]),
        placement=d["placement"],
        groups=int(d["groups"]),
        runtime=d["runtime"],
        report=_report_from_dict(d["report"]),
        background_intensity=d["background_intensity"],
        sample_index=int(d["sample_index"]),
        status=d["status"],
        error=d["error"],
        attempts=int(d["attempts"]),
        solver_converged=bool(d["solver_converged"]),
        solver_nonconverged_phases=int(d["solver_nonconverged_phases"]),
        solver_max_residual=d["solver_max_residual"],
        solver_max_residual_mean=d["solver_max_residual_mean"],
        solver_iterations=int(d["solver_iterations"]),
        series=(
            CounterSeries.from_dict(d["series"]) if d.get("series") is not None else None
        ),
    )


def write_header(path: str | os.PathLike, fingerprint: dict[str, Any]) -> None:
    """Start a fresh checkpoint file, atomically replacing any existing one."""
    rewrite(path, fingerprint, [])


def append_record(path: str | os.PathLike, rec: Any) -> None:
    """Append one finished run, flushed so a crash loses at most one line.

    Raises :class:`StoreUnavailableError` when the filesystem fails the
    append (ENOSPC/EIO); a torn partial line may remain, which the next
    ``--resume`` removes via :func:`repair_tail`.
    """
    line = json.dumps(record_to_dict(rec)) + "\n"
    try:
        durable.append_line(path, line, site="checkpoint.append")
    except OSError as exc:
        raise StoreUnavailableError("checkpoint append", exc) from exc


def repair_tail(path: str | os.PathLike) -> bool:
    """Truncate a crash-torn final line so appends stay crash-atomic.

    A campaign killed mid-append leaves either a line without its
    trailing newline or a newline-terminated line of partial JSON.
    ``load_records`` tolerates both on read, but *appending* after a
    torn tail would concatenate a fresh record onto the fragment and
    corrupt two records instead of zero.  Returns True when bytes were
    actually removed.
    """
    with open(path, "r+b") as f:
        data = f.read()
        if not data:
            return False
        keep = len(data)
        if not data.endswith(b"\n"):
            # partial line with no terminator: drop back to the last
            # complete line (the file always starts with the header)
            keep = data.rfind(b"\n") + 1
        else:
            last_nl = data.rfind(b"\n", 0, len(data) - 1)
            last_line = data[last_nl + 1 :]
            try:
                json.loads(last_line)
            except json.JSONDecodeError:
                keep = last_nl + 1  # newline landed but the JSON did not
        if keep == len(data):
            return False
        f.truncate(keep)
        f.flush()
        os.fsync(f.fileno())
        return True


def rewrite(
    path: str | os.PathLike,
    fingerprint: dict[str, Any],
    records: list[Any],
) -> None:
    """Atomically replace a checkpoint with header + the given records.

    Starts a fresh file (:func:`write_header`) and, on ``--resume``,
    drops error/superseded records.  The new file is built beside the
    old one and swapped in with ``os.replace``, so a crash or a failed
    write leaves the previous checkpoint intact.
    """
    lines = [json.dumps({"kind": _KIND, "version": _VERSION, "config": fingerprint})]
    lines += [json.dumps(record_to_dict(rec)) for rec in records]
    try:
        durable.write_atomic(
            path, "\n".join(lines) + "\n", pre_rename="checkpoint.rewrite"
        )
    except OSError as exc:
        raise StoreUnavailableError("checkpoint rewrite", exc) from exc


def load_records(
    path: str | os.PathLike, fingerprint: dict[str, Any]
) -> dict[tuple[int, str], Any]:
    """Load completed runs keyed by ``(sample_index, mode)``.

    Only ``status == "ok"`` records are returned (failed runs re-run on
    resume); later records override earlier ones for the same key.
    Raises ``ValueError`` on a header/fingerprint mismatch or on
    corruption anywhere but the final (possibly crash-truncated) line.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError(f"checkpoint {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ValueError(f"checkpoint {path} has a corrupt header") from e
    if header.get("kind") != _KIND or header.get("version") != _VERSION:
        raise ValueError(f"{path} is not a version-{_VERSION} campaign checkpoint")
    if header.get("config") != fingerprint:
        raise ValueError(
            f"checkpoint {path} was written by a different campaign config: "
            f"{header.get('config')} != {fingerprint}"
        )
    out: dict[tuple[int, str], Any] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # crash-truncated tail; the run simply re-runs
            raise ValueError(f"checkpoint {path} is corrupt at line {lineno}")
        rec = record_from_dict(d)
        if rec.status == "ok":
            out[(rec.sample_index, rec.mode)] = rec
    return out
