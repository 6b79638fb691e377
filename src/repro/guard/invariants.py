"""Engine conservation-law checks.

Each function inspects one engine's state and reports anything broken
through :meth:`RunGuard.violation`, which applies the policy's
warn/record/raise disposition.  All checks are written to hold on every
healthy workload — the ``REPRO_GUARD=strict`` CI leg runs the whole
tier-1 suite with ``invariants="raise"`` — so a finding always means a
real bug (or a deliberately sabotaged test fixture).

The full invariant table lives in ``docs/GUARDRAILS.md``.
"""

from __future__ import annotations

import numpy as np


def check_fluid_iterate(guard, it: int, x: np.ndarray, load: np.ndarray) -> None:
    """Per-iteration solver checks: finite split fractions in [0, 1],
    finite non-negative link loads."""
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        guard.violation(
            "fluid.finite_split",
            f"split fraction is not finite for flow {bad} at iteration {it}",
            iteration=it,
            flow=bad,
        )
        return
    if x.size and (float(x.min()) < 0.0 or float(x.max()) > 1.0):
        guard.violation(
            "fluid.split_range",
            f"split fraction outside [0, 1] at iteration {it}: "
            f"min {float(x.min()):.4g}, max {float(x.max()):.4g}",
            iteration=it,
            min=float(x.min()),
            max=float(x.max()),
        )
    if not np.isfinite(load).all():
        guard.violation(
            "fluid.finite_load",
            f"link load is not finite at iteration {it}",
            iteration=it,
        )
    elif load.size and float(load.min()) < 0.0:
        guard.violation(
            "fluid.nonnegative_load",
            f"negative link load at iteration {it}: {float(load.min()):.4g}",
            iteration=it,
            min=float(load.min()),
        )


def check_fluid_result(guard, top, load, flits=None, stalls=None, flow_time=None) -> None:
    """Post-solve checks: finite counters, no load on zero-capacity links
    (disconnected slots and faulted-dead links), non-negative everything.
    A link-field solve computes only ``load``; the others are ``None``."""
    for name, arr in (
        ("load", load),
        ("flits", flits),
        ("stalls", stalls),
        ("flow_time", flow_time),
    ):
        if arr is None:
            continue
        if not np.isfinite(arr).all():
            guard.violation(
                "fluid.finite_result", f"{name} contains non-finite values", field=name
            )
            return
        if arr.size and float(arr.min()) < 0.0:
            guard.violation(
                "fluid.nonnegative_result",
                f"{name} contains negative values: min {float(arr.min()):.4g}",
                field=name,
                min=float(arr.min()),
            )
    masked = top.capacity <= 0.0
    if masked.any():
        leak = float(np.abs(load[masked]).max(initial=0.0))
        if leak > 1e-9:
            guard.violation(
                "fluid.capacity_mask",
                f"load {leak:.4g} assigned to a zero-capacity link "
                "(dead or disconnected)",
                leak=leak,
            )


def check_packet_state(guard, sim) -> None:
    """Periodic packet-simulator checks.

    * credits never go negative (the scheduler may only serve up to
      ``floor(credit)`` packets per link per step);
    * links the fault schedule has killed hold zero credit;
    * total ejection-side flits never exceed injection-side flits (every
      delivered packet was injected first — flit conservation across the
      fabric, net of drops);
    * the simulation clock is monotone.
    """
    credit = sim.credit
    if credit.size and float(credit.min()) < -1e-9:
        guard.violation(
            "packet.nonnegative_credit",
            f"link credit went negative: {float(credit.min()):.4g}",
            min=float(credit.min()),
            step=sim.step,
        )
    if sim.faults is not None:
        dead = sim.rate <= 0.0
        if dead.any():
            stray = float(np.abs(credit[dead]).max(initial=0.0))
            if stray > 1e-9:
                guard.violation(
                    "packet.dead_link_credit",
                    f"dead link holds {stray:.4g} credits",
                    credit=stray,
                    step=sim.step,
                )
    top = sim.top
    nodes = np.arange(top.n_nodes)
    inj = float(sim.flits[top.injection_link(nodes)].sum())
    eje = float(sim.flits[top.ejection_link(nodes)].sum())
    if eje > inj + 1e-6:
        guard.violation(
            "packet.flit_conservation",
            f"ejected {eje:.6g} flits but only {inj:.6g} were injected",
            injected=inj,
            ejected=eje,
            step=sim.step,
        )
    last = getattr(sim, "_guard_last_step", -1)
    if sim.step < last:
        guard.violation(
            "packet.monotone_clock",
            f"simulation step went backwards: {last} -> {sim.step}",
            previous=last,
            step=sim.step,
        )
    sim._guard_last_step = sim.step
