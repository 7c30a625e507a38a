"""Architecture substrate: OpenPiton model and synthetic netlists."""

from .generate import (generate_chiplet_netlist,
                       generate_monolithic_netlist, generate_tile_netlist)
from .modules import (BusSpec, CellMix, INTER_TILE_BUSES, INTRA_TILE_BUSES,
                      LOGIC_CHIPLET, MEMORY_CHIPLET, ModuleSpec,
                      TILE_MODULES, chiplet_instance_count, get_module,
                      inter_tile_signal_count, intra_tile_signal_count,
                      modules_for_chiplet)
from .noc import (AmatParameters, LinkLatencyReport, LinkParameters,
                  link_latency, serdes_performance_cost, tile_amat)
from .netlist import (Instance, Net, Netlist, NetlistArrays, Port,
                      PortDirection)
from .openpiton import ChipletRef, OpenPitonSystem
from .topology import (ARRANGEMENTS, MAX_CHIPLETS, MIN_CHIPLETS,
                       is_default_topology, validate_topology)

__all__ = [
    "ARRANGEMENTS", "AmatParameters", "BusSpec", "CellMix", "ChipletRef",
    "INTER_TILE_BUSES", "LinkLatencyReport", "LinkParameters",
    "INTRA_TILE_BUSES", "Instance", "LOGIC_CHIPLET", "MAX_CHIPLETS",
    "MEMORY_CHIPLET", "MIN_CHIPLETS",
    "ModuleSpec", "Net", "Netlist", "NetlistArrays", "OpenPitonSystem",
    "Port", "PortDirection", "TILE_MODULES", "chiplet_instance_count",
    "generate_chiplet_netlist", "generate_monolithic_netlist",
    "generate_tile_netlist", "get_module",
    "inter_tile_signal_count", "intra_tile_signal_count",
    "is_default_topology",
    "link_latency", "modules_for_chiplet", "serdes_performance_cost",
    "tile_amat", "validate_topology",
]
