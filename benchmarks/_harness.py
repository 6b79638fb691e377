"""Shared infrastructure for the per-figure/table benchmark harnesses.

Each benchmark regenerates one of the paper's tables or figures: it runs
the corresponding experiment at a reduced-but-meaningful scale, prints
the paper-shaped rows/series, and writes them under
``benchmarks/results/`` so they survive pytest's stdout capture.  The
``benchmark`` fixture times the harness run itself.

Every campaign is a plain :class:`CampaignConfig` whose background pool
comes from the config alone, so each one is the CLI's ``repro compare``
with the same flags and writes the same records.

Scale: campaign sample counts default to ~1/4 of the paper's (which used
30-190 runs per configuration); pass ``REPRO_BENCH_SCALE`` > 1 in the
environment to run closer to paper size.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro.core.experiment import CampaignConfig, run_campaign
from repro.scheduler.background import BackgroundModel
from repro.topology.systems import cori, theta
from repro.util import derive_rng

RESULTS_DIR = Path(__file__).parent / "results"

#: global scale knob for sample counts
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: root seed for every benchmark campaign
SEED = 2021


def n_samples(base: int) -> int:
    """Scaled sample count (>= 4 so statistics stay meaningful)."""
    return max(4, int(round(base * SCALE)))


def report(name: str, text: str) -> str:
    """Print a harness's table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


@functools.lru_cache(maxsize=1)
def theta_top():
    return theta()


@functools.lru_cache(maxsize=1)
def cori_top():
    return cori()


@functools.lru_cache(maxsize=1)
def background_scenario():
    """One production background scenario on Theta, for the ablations
    that drive a single scenario by hand rather than run a campaign."""
    return BackgroundModel(theta_top()).build_scenario(
        derive_rng(SEED, "bench-pool", "theta", 512), reserve_nodes=512
    )


_campaign_cache: dict = {}


def cached_campaign(
    app,
    *,
    system: str = "theta",
    n_nodes: int = 256,
    modes=None,
    samples: int = 8,
    placement: str = "production",
    background: str = "production",
    seed: int = SEED,
):
    """Run (or reuse) a campaign; many figures share the same records."""
    from repro.core.biases import AD0, AD3

    modes = modes or (AD0, AD3)
    key = (
        app.name,
        system,
        n_nodes,
        tuple(m.name for m in modes),
        samples,
        placement,
        background,
        seed,
    )
    if key not in _campaign_cache:
        top = theta_top() if system == "theta" else cori_top()
        cfg = CampaignConfig(
            app=app,
            n_nodes=n_nodes,
            modes=tuple(modes),
            samples=samples,
            placement=placement,
            background=background,
            seed=seed,
        )
        _campaign_cache[key] = run_campaign(top, cfg)
    return _campaign_cache[key]


def fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)
