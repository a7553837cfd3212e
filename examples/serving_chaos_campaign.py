"""A request-serving service surviving a mercurial core, under chaos.

§7 asks for software that *tolerates* mercurial cores.  This example
runs the same chaos campaign twice — a late-onset defect activates on
one server core mid-campaign, a healthy replica crashes and recovers, a
machine-check burst and a traffic burst land in the second half — first
against a naive service, then against the hardened one (end-to-end
validation, core-diverse retries, hedged requests, per-core circuit
breakers wired into the quarantine policy, load shedding).

The naive service silently returns corrupted-but-well-formed responses;
the hardened one catches them at the client, trips a breaker on the
offending core, and the quarantine loop pulls the core and re-places
the replica on a spare.

Run:  python examples/serving_chaos_campaign.py
"""

from repro.core.events import EventKind
from repro.serving import (
    CampaignConfig,
    ChaosSchedule,
    HardeningConfig,
    ServingCampaign,
    build_serving_fleet,
)

TICKS = 600
ONSET_AGE_DAYS = 400.0


def run_campaign(hardening: HardeningConfig) -> ServingCampaign:
    machines, bad_core_id = build_serving_fleet(
        onset_days=ONSET_AGE_DAYS, seed=7
    )
    campaign = ServingCampaign(
        machines, CampaignConfig(ticks=TICKS), hardening, seed=3
    )
    victim = next(
        r.core_id for r in campaign.router.replicas
        if r.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.standard(
        bad_core_id, victim, TICKS, onset_age_days=ONSET_AGE_DAYS
    )
    campaign.run()
    return campaign


def describe(campaign: ServingCampaign) -> None:
    card = campaign.scorecard
    print(f"--- {card.name} ---")
    print(f"  arrivals:        {card.total_arrivals}")
    print(f"  ok:              {card.ok}  (corrupt escapes: "
          f"{card.corrupt_escapes}, escape rate {card.escape_rate:.2%})")
    print(f"  corrupt caught:  {card.corrupt_caught}")
    print(f"  availability:    {card.availability:.2%}")
    print(f"  p50/p99 latency: {card.p50_latency_ms:.1f} / "
          f"{card.p99_latency_ms:.1f} ms")
    print(f"  goodput/tick:    {card.goodput_per_tick:.2f}")
    print(f"  retries/hedges:  {card.retries} / {card.hedges}")
    print(f"  shed:            {card.shed}")
    print(f"  breaker trips:   {card.breaker_trips}")
    for core_id, tick in sorted(card.quarantine_tick.items()):
        print(f"  quarantined:     {core_id} at tick {tick}")
    trips = [e for e in campaign.events
             if e.kind is EventKind.BREAKER_TRIP]
    for event in trips[:3]:
        print(f"  event: breaker_trip core={event.core_id} "
              f"({event.detail})")


def main() -> None:
    print(__doc__)
    naive = run_campaign(HardeningConfig.unhardened())
    hardened = run_campaign(HardeningConfig.hardened())
    describe(naive)
    describe(hardened)
    reduction = (
        float("inf") if hardened.scorecard.escape_rate == 0
        else naive.scorecard.escape_rate / hardened.scorecard.escape_rate
    )
    print(f"\nescape-rate reduction from hardening: "
          f"{'inf' if reduction == float('inf') else f'{reduction:.0f}x'}")


if __name__ == "__main__":
    main()
