"""A fleet detection campaign, Figure-1 style.

Builds a few thousand machines (with the paper's incidence band
densified for a quick demo), runs months of simulated fleet time, and
prints: Figure 1's two normalized series, the quarantine scoreboard,
and the triage funnel.

Run:  python examples/fleet_screening_campaign.py
"""

import dataclasses

from repro.analysis.figures import render_fig1
from repro.analysis.stats import trend_slope
from repro.core.events import Reporter
from repro.core.metrics import confusion
from repro.fleet import DEFAULT_PRODUCTS, FleetBuilder, FleetSimulator, SimulatorConfig

N_MACHINES = 3000
HORIZON_DAYS = 360.0


def main() -> None:
    products = tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * 20)
        for p in DEFAULT_PRODUCTS
    )
    builder = FleetBuilder(
        products=products, seed=42,
        deployment_window=(-800.0, HORIZON_DAYS),
        technology_refresh=True,
    )
    fleet = builder.build_columns(N_MACHINES)
    print(f"fleet: {N_MACHINES} machines, {fleet.n_cores} cores, "
          f"{fleet.n_mercurial} mercurial "
          f"({1000 * fleet.n_mercurial / N_MACHINES:.2f}/1000 machines)")
    truth_map = fleet.ground_truth_map()

    simulator = FleetSimulator(
        fleet,
        SimulatorConfig(horizon_days=HORIZON_DAYS, warmup_days=120.0),
        seed=7,
    )
    result = simulator.run()

    auto = result.cee_report_series(Reporter.AUTOMATED, bucket_days=60.0)
    human = result.cee_report_series(Reporter.HUMAN, bucket_days=60.0)
    print()
    print(render_fig1(auto, human))
    print(f"\nautomated-series trend: {trend_slope(auto):+.2e}/day "
          "(paper: 'gradually increasing')")

    detection = confusion(truth_map, result.flagged())
    print(f"\nquarantine scoreboard after {HORIZON_DAYS:.0f} days:")
    print(f"  quarantined cores: {len(result.quarantined_cores)}")
    print(f"  precision: {detection.precision:.2f}  "
          f"recall: {detection.recall:.2f}")
    if result.detection_latency_days:
        latencies = sorted(result.detection_latency_days.values())
        print(f"  detection latency (days since onset): "
              f"median={latencies[len(latencies) // 2]:.0f}")

    fractions = result.triage.outcome_fractions()
    print(f"\nhuman triage funnel ({len(result.triage.investigations)} "
          "investigations):")
    for outcome, fraction in fractions.items():
        print(f"  {outcome.value:18s} {fraction:.2f}")
    print(f"\nscreening compute spent: {result.screening_ops_spent:.3g} ops")


if __name__ == "__main__":
    main()
