#!/usr/bin/env python3
"""The paper's production study in miniature: all six applications.

Runs a paired AD0-vs-AD3 campaign for each production application,
prints a Table-II-style summary, and asks the advisor what each
application should use — reproducing the study's best-practice output:
AD3 for everything except the bisection-bound HACC.

Run:  python examples/routing_mode_study.py           # quick (~1 min)
      python examples/routing_mode_study.py --samples 16
"""

import argparse

from repro import CampaignConfig, recommend, run_campaign, theta
from repro.apps import PRODUCTION_APPS
from repro.core.analysis import improvement_table
from repro.core.variability import format_variability


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=8, help="runs per mode per app")
    args = parser.parse_args()

    top = theta()

    records = []
    profiles = {}
    for cls in PRODUCTION_APPS:
        app = cls()
        print(f"running {app.name} ({args.samples} samples per mode) ...")
        # the same campaign as `repro compare --app NAME --samples N`
        recs = run_campaign(top, CampaignConfig(app=app, samples=args.samples))
        records.extend(recs)
        profiles[app.name] = recs[0].report

    print("\nTable II (reproduced)")
    print(f"{'app':14s} {'AD0 (s)':>16s}  {'AD3 (s)':>16s}  {'%time':>7s}  {'%MPI':>7s}  {'runs':>4s}")
    for row in improvement_table(records):
        print(row.format())

    milc_records = [r for r in records if r.app == "MILC"]
    print("\nMILC variability attribution (what drives the spread):")
    print(format_variability(milc_records))

    print("\nadvisor recommendations (Section II-E best practices):")
    for name, report in profiles.items():
        rec = recommend(report)
        print(f"  {name:14s} -> {rec.mode.name}  [{rec.profile_class}]")


if __name__ == "__main__":
    main()
