"""Architecture substrate: OpenPiton model and synthetic netlists."""

from .generate import (generate_chiplet_netlist,
                       generate_monolithic_netlist, generate_tile_netlist)
from .modules import (BusSpec, CellMix, INTER_TILE_BUSES, INTRA_TILE_BUSES,
                      LOGIC_CHIPLET, MEMORY_CHIPLET, ModuleSpec,
                      TILE_MODULES, get_module, modules_for_chiplet)
from .noc import (AmatParameters, LinkLatencyReport, LinkParameters,
                  link_latency, tile_amat)
from .netlist import (Instance, Net, Netlist, NetlistArrays, Port,
                      PortDirection)
from .topology import (ARRANGEMENTS, MAX_CHIPLETS, MIN_CHIPLETS,
                       is_default_topology, validate_topology)

__all__ = [
    "ARRANGEMENTS", "AmatParameters", "BusSpec", "CellMix",
    "INTER_TILE_BUSES", "LinkLatencyReport", "LinkParameters",
    "INTRA_TILE_BUSES", "Instance", "LOGIC_CHIPLET", "MAX_CHIPLETS",
    "MEMORY_CHIPLET", "MIN_CHIPLETS",
    "ModuleSpec", "Net", "Netlist", "NetlistArrays",
    "Port", "PortDirection", "TILE_MODULES",
    "generate_chiplet_netlist", "generate_monolithic_netlist",
    "generate_tile_netlist", "get_module",
    "is_default_topology",
    "link_latency", "modules_for_chiplet",
    "tile_amat", "validate_topology",
]
