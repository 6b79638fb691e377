"""Campaign ↔ queue-manifest serialization and content-addressed tasks.

A distributed campaign must be rebuildable *identically* on any host
from the queue directory alone — the manifest is the wire form of
``(topology, CampaignConfig, telemetry settings)``.  Everything in it is
plain JSON; objects are reduced to the registry names and scalar
parameters their constructors round-trip from:

* topology: ``asdict(DragonflyParams)`` + structural seed (the pair
  :class:`repro.topology.dragonfly.DragonflyTopology` rebuilds from);
* application: its registry name (:func:`repro.apps.app_by_name`);
* routing modes: registry names (:func:`repro.core.biases.mode_by_name`);
* faults: the original ``FaultSchedule.parse`` text plus its seed
  (``describe()`` output is *not* re-parseable, so schedules built
  programmatically without a parse source cannot be distributed);
* guard: ``asdict(GuardPolicy)`` — workers rewrite ``bundle_dir`` to the
  queue's shared ``bundles/`` so diagnostics from any host land where
  the coordinator can see them.

Task ids are content-addressed over the campaign fingerprint plus the
run's RNG key (see :func:`repro.dist.queue.task_id`), so a worker with a
*different* campaign pointed at the same directory can never have its
results mistaken for ours.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.apps import app_by_name
from repro.core.biases import mode_by_name
from repro.core.experiment import CampaignConfig, campaign_fingerprint
from repro.dist.queue import QueueTask, task_id
from repro.faults import FaultSchedule
from repro.guard import GuardPolicy
from repro.telemetry import Telemetry
from repro.telemetry.series import SeriesConfig
from repro.topology.dragonfly import DragonflyParams, DragonflyTopology


class NotDistributable(ValueError):
    """The campaign holds state that cannot be rebuilt from a manifest."""


def campaign_to_manifest(
    top: DragonflyTopology, cfg: CampaignConfig, tel: Telemetry
) -> dict:
    """The JSON-safe wire form of a campaign (raises NotDistributable)."""
    if cfg.params is not None:
        raise NotDistributable(
            "campaigns with custom FluidParams cannot be distributed"
        )
    if cfg.faults is not None and cfg.faults.source is None:
        raise NotDistributable(
            "campaigns with a programmatic FaultSchedule (no parse source) "
            "cannot be distributed; build the schedule with FaultSchedule.parse"
        )
    return {
        "fingerprint": campaign_fingerprint(top, cfg),
        "topology": {"params": asdict(top.params), "seed": top.seed},
        "config": {
            "app": cfg.app.name,
            "n_nodes": cfg.n_nodes,
            "modes": [m.name for m in cfg.modes],
            "samples": cfg.samples,
            "placement": cfg.placement,
            "background": cfg.background,
            "seed": cfg.seed,
            "scenario_pool": cfg.scenario_pool,
            "uniform_env": cfg.uniform_env,
            "max_attempts": cfg.max_attempts,
            "retry_backoff": cfg.retry_backoff,
            "faults": (
                {"source": cfg.faults.source, "seed": cfg.faults.seed}
                if cfg.faults is not None
                else None
            ),
            "guard": asdict(cfg.guard) if cfg.guard is not None else None,
        },
        "telemetry": {
            "trace": tel.trace.enabled,
            "metrics": tel.metrics.enabled,
            "series": asdict(tel.series) if tel.series is not None else None,
        },
    }


def manifest_to_campaign(
    manifest: dict, *, bundle_dir: str | None = None
) -> tuple[DragonflyTopology, CampaignConfig]:
    """Rebuild the identical ``(topology, config)`` pair on any host.

    ``bundle_dir`` overrides the guard policy's bundle directory (the
    worker points it at the queue's shared ``bundles/``); ``None`` keeps
    whatever the coordinator serialized.
    """
    t = manifest["topology"]
    top = DragonflyTopology(DragonflyParams(**t["params"]), seed=int(t["seed"]))
    c = manifest["config"]
    faults = None
    if c.get("faults") is not None:
        faults = FaultSchedule.parse(
            c["faults"]["source"], seed=int(c["faults"]["seed"])
        )
    guard = None
    if c.get("guard") is not None:
        g = dict(c["guard"])
        if bundle_dir is not None and g.get("bundle_dir") is not None:
            g["bundle_dir"] = bundle_dir
        guard = GuardPolicy(**g)
    cfg = CampaignConfig(
        app=app_by_name(c["app"])(),
        n_nodes=int(c["n_nodes"]),
        modes=tuple(mode_by_name(m) for m in c["modes"]),
        samples=int(c["samples"]),
        placement=c["placement"],
        background=c["background"],
        seed=int(c["seed"]),
        scenario_pool=int(c["scenario_pool"]),
        uniform_env=bool(c["uniform_env"]),
        max_attempts=int(c["max_attempts"]),
        retry_backoff=float(c["retry_backoff"]),
        faults=faults,
        guard=guard,
    )
    rebuilt = campaign_fingerprint(top, cfg)
    if rebuilt != manifest["fingerprint"]:
        raise ValueError(
            "manifest fingerprint mismatch after rebuild: "
            f"{rebuilt} != {manifest['fingerprint']}"
        )
    return top, cfg


def manifest_series(manifest: dict) -> SeriesConfig | None:
    """The coordinator's cadence-sampling opt-in, as workers must honor it."""
    s = manifest.get("telemetry", {}).get("series")
    return SeriesConfig(**s) if s is not None else None


def build_tasks(top: DragonflyTopology, cfg: CampaignConfig) -> list[QueueTask]:
    """Every run of the campaign, in canonical (sample-major) order."""
    fp = campaign_fingerprint(top, cfg)
    tasks: list[QueueTask] = []
    for i in range(cfg.samples):
        for mode in cfg.modes:
            tasks.append(
                QueueTask(
                    tid=task_id(fp, i, mode.name),
                    index=len(tasks),
                    sample=i,
                    mode=mode.name,
                )
            )
    return tasks
