"""Durable job journal: `repro serve` survives a SIGKILL.

The journal closes the service's biggest single point of loss: before
it, a restarted server had never heard of the campaigns it accepted.
Every submitted job gets one JSON file under the journal directory,
rewritten atomically (:func:`repro.util.durable.write_atomic`) at each state
transition, so an entry is always a complete snapshot of what the
server last knew:

    <job id>.json   {"kind", "version", "id", "key", "manifest",
                     "jobs", "state", "error", "submitted_at",
                     "finished_at"}

On restart, :meth:`CampaignService.recover` re-adopts every entry whose
state is not terminal (``done``/``error``) and re-executes it — through
the result cache, so completed work is served as hits and the records
come out byte-identical to an uninterrupted run.

Journal I/O is *advisory by contract*: a failed write degrades recovery
(the restarted server may not know about one job) but must never fail
the submission or the campaign itself — callers swallow
:class:`OSError` and count it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.util import durable

_KIND = "repro-job-journal"
_VERSION = 1

#: job states that need no recovery
TERMINAL_STATES = ("done", "error")


class JobJournal:
    """One directory of per-job recovery snapshots (see module doc)."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, jid: str) -> Path:
        return self.dir / f"{jid}.json"

    def record(
        self,
        jid: str,
        *,
        key: str,
        manifest: dict,
        jobs: int | None,
        state: str,
        error: str | None = None,
        submitted_at: float | None = None,
        finished_at: float | None = None,
    ) -> None:
        """Atomically (re)write one job's snapshot.  Raises ``OSError``
        on filesystem failure — the *caller* decides that journal loss
        is survivable, not this layer."""
        entry = {
            "kind": _KIND,
            "version": _VERSION,
            "id": jid,
            "key": key,
            "manifest": manifest,
            "jobs": jobs,
            "state": state,
            "error": error,
            "submitted_at": submitted_at,
            "finished_at": finished_at,
        }
        durable.write_atomic(
            self._path(jid), json.dumps(entry) + "\n", post_tmp="service.journal.append"
        )

    def load(self) -> list[dict]:
        """Every readable entry, oldest submission first.

        Unparseable files (a torn write from a dying disk — the atomic
        protocol never produces one, but the journal must not trust its
        own luck) are skipped, not raised.
        """
        out = []
        try:
            names = sorted(os.listdir(self.dir))
        except OSError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                entry = json.loads((self.dir / name).read_bytes())
            except (OSError, ValueError):
                continue
            if (
                isinstance(entry, dict)
                and entry.get("kind") == _KIND
                and entry.get("version") == _VERSION
                and isinstance(entry.get("manifest"), dict)
            ):
                out.append(entry)
        out.sort(key=lambda e: (e.get("submitted_at") or 0.0, e.get("id", "")))
        return out

    def pending(self) -> list[dict]:
        """Entries a restarted server must re-adopt (non-terminal state)."""
        return [e for e in self.load() if e.get("state") not in TERMINAL_STATES]

    def remove(self, jid: str) -> None:
        try:
            os.unlink(self._path(jid))
        except OSError:
            pass

    def prune_terminal(self) -> int:
        """Drop entries for finished jobs; returns how many were removed."""
        n = 0
        for entry in self.load():
            if entry.get("state") in TERMINAL_STATES:
                self.remove(entry["id"])
                n += 1
        return n
