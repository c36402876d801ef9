"""Data-TLB benchmark: a fifth domain beyond the paper's four.

The paper notes its analysis "is not limited to one type of events"; this
benchmark takes that literally and applies the identical machinery to the
address-translation hierarchy.  A pointer chase at page stride (one
pointer per 4 KiB page, randomized order) touches each page exactly once
per pass, so the page working set sweeps the translation hierarchy the
way the data-cache benchmark sweeps the caches:

* within the first-level DTLB's reach every access translates there;
* between DTLB and STLB reach, every access misses the first level and
  hits the shared second level;
* beyond STLB reach, every access walks the page table.

Rows use two working-set sizes per region (like the cache sweep) at two
page strides (one and two pages between pointers), and the expectations
form a clean rank-3 block basis over the dimensions (DTLBH, STLBH, WALK).

The two strides are load-bearing: with one stride, byte footprint is
proportional to page count, so the shared-L3 overflow boundary lands at a
fixed page count and cache-miss events become *confounded* with page
walks (the QRCP would happily select ``MEM_LOAD_RETIRED:L3_MISS`` as the
walk carrier — observed during development).  Doubling the stride doubles
the byte footprint at the same page count, shifting every cache boundary
while the translation boundaries stay put, so cache events stop being
representable in the TLB basis and are rejected — the same de-confounding
CAT's cache benchmark achieves with its 64 B/128 B strides.

The benchmark is multi-threaded like the cache one and inherits its
environment-noise regime — translation counters on real parts are
comparably jittery.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.activity import Activity
from repro.events.model import EventDomain
from repro.hardware.cpu import PointerChase, SimulatedCPU
from repro.hardware.tlb import TLBConfig

__all__ = ["DTLBBenchmark", "default_page_counts"]


def default_page_counts(tlb: TLBConfig = TLBConfig()) -> List[Tuple[str, int]]:
    """(region label, pages) pairs spanning the translation hierarchy.

    Two working-set sizes per region, derived from the TLB geometry: a
    quarter and three-quarters of the first-level reach, then an eighth
    and a half of the STLB reach, then 2x and 4x STLB reach.
    """
    return [
        ("TLB", max(4, tlb.entries // 4)),
        ("TLB", max(8, tlb.entries * 3 // 4)),
        ("STLB", tlb.stlb_entries // 8),
        ("STLB", tlb.stlb_entries // 2),
        ("WALK", tlb.stlb_entries * 2),
        ("WALK", tlb.stlb_entries * 4),
    ]


class DTLBBenchmark:
    """Pointer chase at page stride sweeping the translation hierarchy."""

    name = "dtlb"
    measured_domains: Tuple[str, ...] = (
        EventDomain.TLB,
        EventDomain.CACHE,
        EventDomain.MEMORY,
        EventDomain.PIPELINE,
    )
    #: Same interference regime as the data-cache benchmark.
    environment_noise: Tuple[float, float] = (2e-4, 5e-3)

    def __init__(
        self,
        page_counts: Sequence[Tuple[str, int]] | None = None,
        n_threads: int = 4,
        page_bytes: int = 4096,
        strides_pages: Sequence[int] = (1, 2),
        tlb_config: TLBConfig | None = None,
    ):
        self.page_bytes = page_bytes
        self.n_threads = n_threads
        self.strides_pages = tuple(strides_pages)
        if page_counts is not None:
            self.page_counts = list(page_counts)
        else:
            self.page_counts = default_page_counts(tlb_config or TLBConfig())
        self._rows: List[Tuple[str, str, PointerChase]] = []
        for stride_pages in self.strides_pages:
            if stride_pages <= 0:
                raise ValueError("strides must be positive page counts")
            for region, pages in self.page_counts:
                if pages <= 0:
                    raise ValueError("page counts must be positive")
                chase = PointerChase(
                    n_pointers=pages,
                    stride_bytes=stride_pages * page_bytes,
                    n_threads=n_threads,
                )
                label = f"stride{stride_pages}p/pages{pages}/{region}"
                self._rows.append((label, region, chase))

    def row_labels(self) -> List[str]:
        return [label for label, _, _ in self._rows]

    def row_regions(self) -> List[str]:
        return [region for _, region, _ in self._rows]

    def execute(self, machine: SimulatedCPU) -> List[List[Activity]]:
        if not isinstance(machine, SimulatedCPU):
            raise TypeError("the DTLB benchmark requires a SimulatedCPU")
        return [machine.run_pointer_chase(chase) for _, _, chase in self._rows]
