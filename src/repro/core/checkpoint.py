"""JSONL checkpointing: crash-tolerant sweeps.

A checkpoint file is one header line (the config fingerprint) followed
by one JSON object per completed task, in a kind's :class:`LineCodec`:
:data:`RUN_RECORDS` (campaign runs, the default) or :data:`OUTPUT_LINES`
(an ensemble sweep's output per mode).  Records are appended as
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

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from repro.monitoring.autoperf import AutoPerfReport, MpiOpRecord
from repro.network.counters import TILE_CLASSES, CounterSnapshot
from repro.util import durable
from repro.util.durable import StoreUnavailableError

_KIND = "campaign-checkpoint"
_VERSION = 1


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

    series = d.get("series")
    if series is not None:
        from repro.telemetry.series import CounterSeries

        series = CounterSeries.from_dict(series)
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
        series=series,
    )


@dataclass(frozen=True)
class LineCodec:
    """How one kind's results become checkpoint lines and back."""

    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    #: the slot a result fills; a later line overrides an earlier one
    key: Callable[[Any], Hashable]
    #: whether a loaded result counts as done (the rest re-run on resume)
    done: Callable[[Any], bool]


#: campaign runs: only ``ok`` records count as done
RUN_RECORDS = LineCodec(
    record_to_dict, record_from_dict, lambda r: (r.sample_index, r.mode),
    lambda r: r.status == "ok",
)
#: an ensemble sweep: one ``{"mode", "lines"}`` object per finished mode
OUTPUT_LINES = LineCodec(dict, dict, lambda d: d["mode"], lambda d: True)


def write_header(path: str | os.PathLike, fingerprint: dict[str, Any]) -> None:
    """Start a fresh checkpoint file, atomically replacing any existing one."""
    rewrite(path, fingerprint, [])


def encode_record(rec: Any, codec: LineCodec = RUN_RECORDS) -> str:
    """One result's checkpoint line, without its newline: for a campaign
    run, its one wire form (:mod:`repro.core.pipeline`)."""
    return json.dumps(codec.encode(rec))


def append_record(
    path: str | os.PathLike, rec: Any, codec: LineCodec = RUN_RECORDS, line: str | None = None
) -> None:
    """Append one finished task, flushed so a crash loses at most one line.

    ``line`` is the task's :func:`encode_record` line when the caller
    already holds it (it is appended as is); otherwise ``rec`` is encoded.
    Raises :class:`StoreUnavailableError` when the filesystem fails the
    append (ENOSPC/EIO); a torn partial line may remain, which the next
    ``--resume`` removes via :func:`repair_tail`.
    """
    if line is None:
        line = encode_record(rec, codec)
    try:
        durable.append_line(path, line + "\n", site="checkpoint.append")
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


def rewrite(path: str | os.PathLike, fingerprint: dict[str, Any], lines: list[str]) -> None:
    """Atomically replace a checkpoint with header + the given record lines.

    Starts a fresh file (:func:`write_header`) and, on ``--resume``,
    drops error/superseded records, writing the kept lines' bytes as
    loaded.  The new file is built beside the old one and swapped in
    with ``os.replace``, so a crash or a failed write leaves the previous
    checkpoint intact.
    """
    head = json.dumps({"kind": _KIND, "version": _VERSION, "config": fingerprint})
    try:
        durable.write_atomic(
            path, "\n".join([head, *lines]) + "\n", pre_rename="checkpoint.rewrite"
        )
    except OSError as exc:
        raise StoreUnavailableError("checkpoint rewrite", exc) from exc


def load_records(
    path: str | os.PathLike, fingerprint: dict[str, Any], codec: LineCodec = RUN_RECORDS
) -> dict[Hashable, Any]:
    """Load completed tasks keyed by ``codec.key``: ``(sample_index,
    mode)`` for campaign runs.

    Only results ``codec.done`` accepts are returned (failed runs re-run
    on resume); later lines override earlier ones for the same key.
    Raises ``ValueError`` on a header/fingerprint mismatch or on
    corruption anywhere but the final (possibly crash-truncated) line.
    """
    return {key: rec for key, (rec, _) in _load_lines(path, fingerprint, codec).items()}


def _load_lines(
    path: str | os.PathLike, fingerprint: dict[str, Any], codec: LineCodec
) -> dict[Hashable, tuple[Any, str]]:
    """:func:`load_records`, each result with the line it was read from."""
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
    out: dict[Hashable, tuple[Any, str]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # crash-truncated tail; the run simply re-runs
            raise ValueError(f"checkpoint {path} is corrupt at line {lineno}")
        rec = codec.decode(d)
        if codec.done(rec):
            out[codec.key(rec)] = (rec, line)
    return out


def prepare(
    path: str | os.PathLike, fingerprint: dict[str, Any], resume: bool,
    codec: LineCodec = RUN_RECORDS,
) -> dict[Hashable, Any]:
    """Start a fresh checkpoint, or resume one; returns the done tasks.

    A resume truncates a tail torn by a crash mid-append before reading,
    then atomically rewrites the file without error and superseded lines
    (a crash mid-rewrite keeps the old file), copying the kept lines
    rather than encoding their results again.
    """
    if resume and os.path.exists(path):
        repair_tail(path)
        kept = _load_lines(path, fingerprint, codec)
        rewrite(path, fingerprint, [line for _, line in kept.values()])
        return {key: rec for key, (rec, _) in kept.items()}
    write_header(path, fingerprint)
    return {}
