"""NoC link performance model: what the SerDes latency actually costs.

Section IV-A pays "8 additional cycles for inter-tile communications" to
fit the bump budget.  This module quantifies that architectural cost:
an analytical link model (M/D/1 queueing on the serialized channel plus
pipeline latencies) gives per-hop latency and saturation throughput, and
a tile-level average-memory-access-time (AMAT) model folds the link
latency into end-to-end performance — the system-level view the paper's
architecture section implies but does not evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..partition.serdes import SerDesConfig


@dataclass(frozen=True)
class LinkParameters:
    """A chiplet-to-chiplet NoC link.

    Attributes:
        flit_bits: Flit width of the NoC (OpenPiton: 64).
        clock_mhz: Link clock (the paper's 700 MHz system clock).
        serdes: Serialization configuration (``ratio`` lanes a flit is
            split over in time).
        pipeline_cycles: AIB pipeline stages per crossing (1 per the
            paper's pipelined driver).
        router_cycles: NoC router traversal cycles per hop.
    """

    flit_bits: int = 64
    clock_mhz: float = 700.0
    serdes: SerDesConfig = SerDesConfig()
    pipeline_cycles: int = 1
    router_cycles: int = 3

    def cycles_per_flit(self) -> int:
        """Cycles the serialized channel occupies per flit."""
        return max(1, self.serdes.ratio)

    def peak_bandwidth_gbps(self) -> float:
        """Saturation throughput of one serialized bus (Gb/s)."""
        return (self.flit_bits * self.clock_mhz * 1e6
                / self.cycles_per_flit()) / 1e9


@dataclass
class LinkLatencyReport:
    """Latency/throughput analysis of one link at a given load.

    Attributes:
        utilization: Offered load / capacity.
        zero_load_latency_cycles: Latency with an empty queue.
        queueing_cycles: Mean M/D/1 waiting time.
        total_latency_cycles: Zero-load + queueing.
        total_latency_ns: Same in nanoseconds.
        bandwidth_gbps: Peak channel throughput.
    """

    utilization: float
    zero_load_latency_cycles: float
    queueing_cycles: float
    total_latency_cycles: float
    total_latency_ns: float
    bandwidth_gbps: float


def link_latency(params: LinkParameters,
                 offered_flits_per_cycle: float) -> LinkLatencyReport:
    """Analyze one serialized inter-chiplet link under load.

    The channel serves one flit every ``serdes.ratio`` cycles
    (deterministic service); arrivals are Poisson — the classic M/D/1
    model: ``Wq = rho * S / (2 (1 - rho))``.

    Args:
        params: Link description.
        offered_flits_per_cycle: Flit injection rate (must keep the
            channel below saturation).

    Raises:
        ValueError: If the load is at or beyond saturation.
    """
    if offered_flits_per_cycle < 0:
        raise ValueError("offered load cannot be negative")
    service = params.cycles_per_flit()
    rho = offered_flits_per_cycle * service
    if rho >= 1.0:
        raise ValueError(f"link saturated: utilization {rho:.2f} >= 1 "
                         f"(max {1.0 / service:.3f} flits/cycle)")
    wq = rho * service / (2.0 * (1.0 - rho))
    zero_load = (service                 # serialization time
                 + params.serdes.latency_cycles * 0  # folded into service
                 + 2 * params.pipeline_cycles        # TX + RX AIB stages
                 + params.router_cycles)
    # The paper counts the full serialization pass as its +8 cycles; the
    # deserializer must also wait for the last lane bit:
    zero_load += max(0, params.serdes.latency_cycles - service)
    total = zero_load + wq
    cycle_ns = 1e3 / params.clock_mhz
    return LinkLatencyReport(
        utilization=rho,
        zero_load_latency_cycles=zero_load,
        queueing_cycles=wq,
        total_latency_cycles=total,
        total_latency_ns=total * cycle_ns,
        bandwidth_gbps=params.peak_bandwidth_gbps())


@dataclass(frozen=True)
class AmatParameters:
    """Average memory-access-time model for one OpenPiton tile.

    Attributes:
        l1_hit_cycles: L1 access time.
        l1_miss_rate: Fraction of accesses missing L1.
        l2_hit_cycles: L2 access time.
        l2_miss_rate: Fraction of L1 misses missing L2.
        l3_hit_cycles: L3 array access time (on the memory chiplet).
        l3_miss_rate: Fraction of L2 misses missing L3 (to DRAM).
        dram_cycles: Main-memory access time.
    """

    l1_hit_cycles: float = 2.0
    l1_miss_rate: float = 0.06
    l2_hit_cycles: float = 12.0
    l2_miss_rate: float = 0.30
    l3_hit_cycles: float = 30.0
    l3_miss_rate: float = 0.25
    dram_cycles: float = 180.0


def tile_amat(link: LinkLatencyReport,
              params: AmatParameters = AmatParameters()) -> float:
    """Average memory access time (cycles) with the chiplet L3 crossing.

    Every L2 miss crosses the logic→memory link twice (request and
    response), adding ``2 x link latency`` to the L3 access — the cost
    chipletization introduces vs the monolithic tile.
    """
    crossing = 2.0 * link.total_latency_cycles
    l3_time = params.l3_hit_cycles + crossing \
        + params.l3_miss_rate * params.dram_cycles
    l2_time = params.l2_hit_cycles + params.l2_miss_rate * l3_time
    return params.l1_hit_cycles + params.l1_miss_rate * l2_time
