"""Run guardrails: budgets, watchdog, invariant monitors, diagnostics.

The guard layer is the production-fleet shape of defensive machinery the
ROADMAP's north star needs, applied to simulation campaigns:

* **Budgets & cancellation** — :class:`GuardPolicy` declares per-run
  wall-clock deadlines and iteration/step budgets; the engines enforce
  them cooperatively and raise :class:`RunTimeoutError`, which campaigns
  convert into error-status records.
* **Worker watchdog** — :class:`Watchdog` / :class:`WorkerHeartbeat`
  detect *hung* (not just dead) pool workers and kill them into the
  dispatcher's existing bounded-retry machinery.
* **Invariant monitors** — :mod:`repro.guard.invariants` checks the
  engines' conservation laws under a warn/record/raise policy
  (``REPRO_GUARD=strict`` turns every check into a hard error).
* **Diagnostics bundles** — :mod:`repro.guard.bundle` captures enough
  state (config fingerprint, RNG key, trailing events) to replay a
  failing run.
* **Self-checks** — :mod:`repro.guard.doctor` backs the ``repro
  doctor`` CLI subcommand.

The default :data:`NO_GUARD` policy is a strict no-op: engines skip
every guard branch and results are byte-identical to an unguarded
build.  See ``docs/GUARDRAILS.md``.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bundle": "load_bundle write_bundle",
    ".context": "RunGuard active_guard current_guard set_current_guard "
    "set_worker_heartbeat use_guard",
    ".errors": "GuardWarning InvariantViolation RunTimeoutError",
    ".policy": "GUARD_ENV INVARIANT_MODES NO_GUARD GuardPolicy",
    ".watchdog": "Watchdog WorkerHeartbeat",
    "repro.telemetry.trace": "RingTraceWriter",
})
