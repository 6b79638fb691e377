"""Seeded chaos schedules: deterministic per-hit failure decisions.

A schedule is parsed from a ``;``-separated mini-language, one rule per
clause::

    site-glob:action[:param=value[,param=value...]]

    store.commit.pre_rename:enospc:p=0.25
    queue.commit.link:eio:at=2
    worker.heartbeat:crash:at=3
    service.job.dispatch:latency:ms=50
    store.*:trace

Fields:

* **site-glob** — an ``fnmatch`` pattern over the registered sites in
  :data:`repro.chaos.failpoints.SITES`; a pattern matching no site is a
  spec error (it would silently test nothing).
* **action** — ``enospc`` / ``eio`` (raise the ``OSError``), ``torn``
  (half-write the in-flight file, then raise ``EIO``), ``crash``
  (``os._exit(137)`` — the SIGKILL signature), ``latency`` (sleep
  ``ms``, the fail-slow mode), or ``trace`` (record the hit, act not).
* **params** — ``p=0.25`` fire probability (default 1), ``at=N`` fire
  only on the N-th hit of that site in this process (1-based),
  ``times=N`` fire at most N times, ``ms=N`` latency milliseconds.

Determinism is the whole point: probability draws come from
:func:`repro.util.rng.derive_rng` keyed on ``(seed, "chaos", site,
hit-index, epoch, rule-index)``, so a failure run replays exactly from
``(seed, spec)``.  The *epoch* distinguishes restart attempts of a soak
(each restart re-counts hits from zero); bumping it decorrelates the
probability draws while keeping the whole soak a pure function of its
inputs.  Every fire is recorded in :attr:`ChaosSchedule.fired` (and
appended to ``log_path`` when given, flushed before the action runs so
even a ``crash`` leaves its own footprint).
"""

from __future__ import annotations

import errno as _errno
import json
import os
import threading
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Callable

from repro.util.rng import derive_rng

#: exit status of the ``crash`` action — the classic SIGKILL code, so a
#: chaos crash is indistinguishable from ``kill -9`` to every supervisor
CRASH_EXIT_CODE = 137

ACTIONS = ("enospc", "eio", "torn", "crash", "latency", "trace")

_ERRNOS = {"enospc": _errno.ENOSPC, "eio": _errno.EIO}


class ChaosSpecError(ValueError):
    """A malformed schedule spec (bad site, action, or parameter)."""

    def __init__(self, clause: str, reason: str) -> None:
        super().__init__(f"bad chaos rule {clause!r}: {reason}")
        self.clause = clause
        self.reason = reason


@dataclass
class ChaosRule:
    """One parsed clause: which site(s), what to do, when."""

    pattern: str
    action: str
    p: float = 1.0
    at: int | None = None
    times: int | None = None
    ms: float = 10.0
    #: the original clause text (fired-log attribution)
    source: str = ""
    #: fires so far (``times`` bookkeeping; per-process, like hit counts)
    fires: int = field(default=0, compare=False)

    def check_registered(self, sites: dict[str, str]) -> None:
        """Reject patterns matching nothing — they would test nothing."""
        if not any(fnmatch(site, self.pattern) for site in sites):
            raise ChaosSpecError(
                self.source or self.pattern,
                f"matches no registered failpoint site (have: "
                f"{', '.join(sorted(sites))})",
            )


def _parse_rule(clause: str) -> ChaosRule:
    parts = [p.strip() for p in clause.split(":")]
    if not parts or not parts[0]:
        raise ChaosSpecError(clause, "empty site pattern")
    if len(parts) < 2:
        raise ChaosSpecError(clause, "missing action (site:action[:k=v,...])")
    if len(parts) > 3:
        raise ChaosSpecError(clause, "too many ':' fields")
    pattern, action = parts[0], parts[1]
    if action not in ACTIONS:
        raise ChaosSpecError(
            clause, f"unknown action {action!r} (choose from {', '.join(ACTIONS)})"
        )
    rule = ChaosRule(pattern=pattern, action=action, source=clause)
    if len(parts) == 3 and parts[2]:
        for kv in parts[2].split(","):
            key, sep, value = kv.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ChaosSpecError(clause, f"parameter {kv!r} is not k=v")
            try:
                if key == "p":
                    rule.p = float(value)
                    if not 0.0 <= rule.p <= 1.0:
                        raise ChaosSpecError(clause, f"p={rule.p} outside [0, 1]")
                elif key == "at":
                    rule.at = int(value)
                    if rule.at < 1:
                        raise ChaosSpecError(clause, "at= is 1-based")
                elif key == "times":
                    rule.times = int(value)
                    if rule.times < 1:
                        raise ChaosSpecError(clause, "times= must be >= 1")
                elif key == "ms":
                    rule.ms = float(value)
                    if rule.ms < 0:
                        raise ChaosSpecError(clause, "ms= must be >= 0")
                else:
                    raise ChaosSpecError(clause, f"unknown parameter {key!r}")
            except ValueError as exc:
                if isinstance(exc, ChaosSpecError):
                    raise
                raise ChaosSpecError(clause, f"bad value for {key!r}: {value!r}") from exc
    return rule


class ChaosSchedule:
    """The per-hit decision engine behind active failpoints.

    Thread-safe: the service hits failpoints from several campaign
    threads at once.  Hit counters and ``times`` budgets are
    per-process (a forked child starts fresh — that is what makes
    ``at=N`` rules meaningful across soak restarts).
    """

    def __init__(
        self,
        rules: list[ChaosRule],
        *,
        seed: int = 0,
        epoch: int = 0,
        log_path: str | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        spec: str = "",
    ) -> None:
        self.rules = rules
        self.seed = int(seed)
        self.epoch = int(epoch)
        self.log_path = log_path
        self.sleeper = sleeper
        self.spec = spec
        self.hits: dict[str, int] = {}
        #: every fire, oldest first: {"site", "hit", "action", "rule", "epoch"}
        self.fired: list[dict] = []
        self._lock = threading.Lock()

    @classmethod
    def parse(
        cls,
        spec: str,
        *,
        seed: int = 0,
        epoch: int = 0,
        log_path: str | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> "ChaosSchedule":
        """Parse the ``;``-separated rule mini-language (see module doc)."""
        rules = [
            _parse_rule(clause.strip())
            for clause in spec.split(";")
            if clause.strip()
        ]
        return cls(
            rules, seed=seed, epoch=epoch, log_path=log_path,
            sleeper=sleeper, spec=spec,
        )

    def describe(self) -> str:
        """One line per rule, for logs and the soak report."""
        if not self.rules:
            return "(empty schedule: no rules, all failpoints pass)"
        return "; ".join(r.source or f"{r.pattern}:{r.action}" for r in self.rules)

    # ------------------------------------------------------------------
    def hit(self, site: str, *, path=None, data: str | bytes | None = None) -> None:
        """One failpoint hit: count it, match rules, maybe act."""
        with self._lock:
            n = self.hits.get(site, 0) + 1
            self.hits[site] = n
            rule = self._match(site, n)
            if rule is None:
                return
            rule.fires += 1
            entry = {
                "site": site,
                "hit": n,
                "action": rule.action,
                "rule": rule.source,
                "epoch": self.epoch,
            }
            self.fired.append(entry)
            self._log(entry)
        # act outside the lock: latency must not serialize other sites,
        # and the torn write takes its own I/O time
        self._act(rule, site, n, path, data)

    def _match(self, site: str, n: int) -> ChaosRule | None:
        """First rule that decides to fire for hit ``n`` of ``site``."""
        for idx, rule in enumerate(self.rules):
            if not fnmatch(site, rule.pattern):
                continue
            if rule.at is not None and n != rule.at:
                continue
            if rule.times is not None and rule.fires >= rule.times:
                continue
            if rule.p < 1.0:
                draw = derive_rng(
                    self.seed, "chaos", site, n, self.epoch, idx
                ).random()
                if draw >= rule.p:
                    continue
            return rule
        return None

    def _log(self, entry: dict) -> None:
        """Append one fire to the JSONL log, flushed pre-action so even
        a crash leaves its own footprint (plain I/O: the chaos layer
        must never recurse into itself)."""
        if self.log_path is None:
            return
        try:
            with open(self.log_path, "a") as f:
                f.write(json.dumps(entry) + "\n")
                f.flush()
                os.fsync(f.fileno())
        except OSError:
            pass

    def _act(self, rule: ChaosRule, site: str, n: int, path, data) -> None:
        action = rule.action
        if action == "trace":
            return
        if action == "latency":
            if rule.ms > 0:
                self.sleeper(rule.ms / 1000.0)
            return
        if action == "crash":
            # the SIGKILL signature: no cleanup, no atexit, no flush
            os._exit(CRASH_EXIT_CODE)
        if action == "torn":
            self._tear(path, data)
            raise OSError(
                _errno.EIO, "injected torn write (chaos)",
                None if path is None else os.fspath(path),
            )
        # enospc / eio
        eno = _ERRNOS[action]
        raise OSError(
            eno, f"injected {os.strerror(eno)} (chaos)",
            None if path is None else os.fspath(path),
        )

    @staticmethod
    def _tear(path, data: str | bytes | None) -> None:
        """Leave a believable half-written file behind before raising.

        With ``data`` (the payload in flight) the first half is appended
        — a torn append/write.  Without it, an existing file is
        truncated to half its size — a torn overwrite.
        """
        if path is None:
            return
        try:
            if data:
                raw = data.encode() if isinstance(data, str) else data
                with open(path, "ab") as f:
                    f.write(raw[: max(1, len(raw) // 2)])
                    f.flush()
                    os.fsync(f.fileno())
            elif os.path.exists(path):
                size = os.path.getsize(path)
                with open(path, "r+b") as f:
                    f.truncate(size // 2)
        except OSError:
            pass  # the injected EIO is the point; the tear is best-effort
