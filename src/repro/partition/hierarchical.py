"""Hierarchical-based chipletization (the paper's main partitioning branch).

Section IV-A: the L3 cache and its interfacing logic become the memory
chiplet; every other tile module becomes the logic chiplet.  This module
applies that module-level assignment to a flat tile netlist, extracts the
two chiplet sub-netlists, and reports the cut (which should equal the
231-signal L3 interface plus whatever glue nets cross the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..arch.modules import LOGIC_CHIPLET, MEMORY_CHIPLET, modules_for_chiplet
from ..arch.netlist import Netlist
from .fm import PartitionResult, cut_nets


@dataclass
class Chipletization:
    """Result of splitting a tile into logic and memory chiplets.

    Attributes:
        logic: The logic-chiplet sub-netlist.
        memory: The memory-chiplet sub-netlist.
        cut: Names of nets crossing the chiplet boundary.
        assignment: instance → 0 (logic) / 1 (memory).
    """

    logic: Netlist
    memory: Netlist
    cut: Set[str]
    assignment: Dict[str, int]

    @property
    def cut_size(self) -> int:
        """Number of cut nets."""
        return len(self.cut)


def module_of(instance_path: str) -> str:
    """The tile-module name embedded in a hierarchy label.

    ``"tile0/l3_data" -> "l3_data"``; instances without a tile prefix map
    to their first path element.
    """
    parts = instance_path.split("/")
    if len(parts) >= 2 and parts[0].startswith("tile"):
        return parts[1]
    return parts[0]


def hierarchical_assignment(netlist: Netlist) -> Dict[str, int]:
    """Assign each instance by its module's chiplet (0=logic, 1=memory).

    Raises:
        KeyError: If an instance's module is not a known tile module.
    """
    memory_modules = {m.name for m in modules_for_chiplet(MEMORY_CHIPLET)}
    logic_modules = {m.name for m in modules_for_chiplet(LOGIC_CHIPLET)}
    assignment: Dict[str, int] = {}
    view = netlist.arrays()
    for name, module in zip(netlist.instances, view.module.tolist()):
        mod = module_of(view.modules[module] or name)
        if mod in memory_modules:
            assignment[name] = 1
        elif mod in logic_modules:
            assignment[name] = 0
        else:
            raise KeyError(f"instance {name!r} in unknown module {mod!r}")
    return assignment


def chipletize(netlist: Netlist) -> Chipletization:
    """Split a flat tile netlist into logic and memory chiplet netlists.

    The hierarchical assignment keeps modules intact, so the cut consists
    of the L3 interface buses plus cross-module glue nets.
    """
    assignment = hierarchical_assignment(netlist)
    cut = cut_nets(netlist, assignment)
    logic_names = [n for n, p in assignment.items() if p == 0]
    memory_names = [n for n, p in assignment.items() if p == 1]
    if not logic_names or not memory_names:
        raise ValueError("degenerate chipletization: one side is empty")
    logic = netlist.subset(logic_names, name=f"{netlist.name}_logic")
    memory = netlist.subset(memory_names, name=f"{netlist.name}_memory")
    return Chipletization(logic=logic, memory=memory, cut=cut,
                          assignment=assignment)


def compare_with_fm(netlist: Netlist, fm_result: PartitionResult) -> Dict:
    """Compare the hierarchical cut to an FM cut on the same netlist.

    Returns a dict with both cut sizes and the instance-assignment
    agreement fraction (after choosing the label polarity that agrees
    best — partition ids are symmetric).
    """
    hier = hierarchical_assignment(netlist)
    same = sum(1 for n, p in hier.items() if fm_result.assignment[n] == p)
    total = len(hier)
    agreement = max(same, total - same) / total
    return {
        "hierarchical_cut": len(cut_nets(netlist, hier)),
        "fm_cut": fm_result.cut_size,
        "agreement": agreement,
    }
