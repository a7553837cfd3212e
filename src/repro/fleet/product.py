"""CPU products: vendors, SKUs, and their defect statistics.

§1/§2: "CEEs appear to be an industry-wide problem, not specific to any
vendor, but the rate is not uniform across CPU products", and the
incidence is "on the order of a few mercurial cores per several
thousand machines".

A :class:`CpuProduct` carries the per-core probability that a core is
mercurial (the *prevalence*), the spread of defect base rates, and the
aging/onset statistics for that SKU's process node.  The default
portfolio mixes four SKUs whose blended incidence lands in the paper's
band while individual SKUs differ by ~an order of magnitude.
"""

from __future__ import annotations

import dataclasses

from repro.silicon.aging import WeibullOnset


@dataclasses.dataclass(frozen=True)
class CpuProduct:
    """One CPU SKU in the fleet.

    Attributes:
        vendor: vendor name (anonymized, like the paper).
        sku: product identifier.
        cores_per_machine: hardware threads per machine.
        core_prevalence: probability any given core is mercurial.
        rate_decades: (low, high) log10 bounds of defect base rates.
        onset: aging/onset sampler for this SKU.
    """

    vendor: str
    sku: str
    cores_per_machine: int
    core_prevalence: float
    rate_decades: tuple[float, float] = (-7.5, -2.5)
    onset: WeibullOnset = dataclasses.field(default_factory=WeibullOnset)

    def __post_init__(self) -> None:
        if self.cores_per_machine < 1:
            raise ValueError("need at least one core per machine")
        if not 0.0 <= self.core_prevalence <= 1.0:
            raise ValueError("core_prevalence must be a probability")


#: Default SKU portfolio.  Newer, denser nodes (smaller features, more
#: cores) get higher prevalence — §5's scaling argument — and more
#: late-onset defects.
DEFAULT_PRODUCTS: tuple[CpuProduct, ...] = (
    CpuProduct(
        vendor="vendorA", sku="A-28nm-16c", cores_per_machine=16,
        core_prevalence=1.0e-5,
        onset=WeibullOnset(scale_days=900.0, shape=1.8, escape_fraction=0.45),
    ),
    CpuProduct(
        vendor="vendorA", sku="A-14nm-32c", cores_per_machine=32,
        core_prevalence=2.5e-5,
        onset=WeibullOnset(scale_days=700.0, shape=2.0, escape_fraction=0.35),
    ),
    CpuProduct(
        vendor="vendorB", sku="B-10nm-48c", cores_per_machine=48,
        core_prevalence=4.0e-5,
        onset=WeibullOnset(scale_days=600.0, shape=2.2, escape_fraction=0.30),
    ),
    CpuProduct(
        vendor="vendorB", sku="B-7nm-64c", cores_per_machine=64,
        core_prevalence=6.0e-5,
        onset=WeibullOnset(scale_days=500.0, shape=2.4, escape_fraction=0.25),
    ),
)
