"""Vectorized-vs-scalar equivalence of multi-chiplet pin-map routing.

``route_interposer_pins`` feeds arbitrary N-chiplet placements and
``PinLink`` bundles through the vectorized engine; its
``route_interposer_pins_scalar`` golden twin in ``tests/oracles`` must
stay bit-identical —
same nets, same paths, same overflow counts — across arrangements and
technologies, exactly like the ``route_interposer`` equivalence gate.
"""

import pytest

from repro.chiplet.bumps import plan_for_design
from repro.interposer.placement import place_chiplets
from repro.interposer.routing import PinLink, route_interposer_pins
from repro.tech.interposer import IntegrationStyle, get_spec
from tests.oracles import route_interposer_pins_scalar

#: (design, num_chiplets, arrangement) points covering grid, row, hex
#: packing and an embedded (mixed-level) stacked case.
CASES = [
    ("glass_25d", 4, "grid"),
    ("glass_25d", 5, "hexagonal"),
    ("shinko", 3, "row"),
    ("glass_3d", 4, "stacked"),
]


def _problem(design, n, arrangement):
    spec = get_spec(design)
    kinds = ["logic" if i % 2 == 0 else "memory" for i in range(n)]
    plans = [plan_for_design(spec, k) for k in kinds]
    placement = place_chiplets(spec, plans, kinds, arrangement)
    pin_map = {f"chiplet{i}": plans[i].signal_positions()
               for i in range(n)}
    # A ring of links plus one cross link, mixing kinds and counts.
    links = []
    for i in range(n):
        j = (i + 1) % n
        kind = "l2m" if kinds[i] != kinds[j] else "l2l"
        links.append(PinLink(f"chiplet{i}", f"chiplet{j}", kind,
                             20 + 5 * i, f"c{i}_{j}_{kind}"))
    links.append(PinLink("chiplet0", f"chiplet{n // 2}", "l2l", 10,
                         f"c0_{n // 2}_l2l"))
    return placement, pin_map, links


def _net_key(net):
    return (net.name, net.kind, net.length_mm, net.vias,
            sorted(net.layers), net.path)


class TestPinRouteEquivalence:
    @pytest.fixture(scope="class", params=CASES,
                    ids=[f"{d}-n{n}-{a}" for d, n, a in CASES])
    def pair(self, request):
        design, n, arrangement = request.param
        placement, pin_map, links = _problem(design, n, arrangement)
        vec = route_interposer_pins(placement, pin_map, links)
        ref = route_interposer_pins_scalar(placement, pin_map, links)
        return request.param, vec, ref

    def test_nets_bit_identical(self, pair):
        case, vec, ref = pair
        assert len(vec.nets) == len(ref.nets)
        for a, b in zip(vec.nets, ref.nets):
            assert _net_key(a) == _net_key(b), (
                f"{case}: net {a.name} diverged from the scalar "
                f"reference")

    def test_summary_identical(self, pair):
        _case, vec, ref = pair
        assert vec.overflow_cells == ref.overflow_cells
        assert vec.signal_layers_used == ref.signal_layers_used

    def test_all_links_routed(self, pair):
        case, vec, _ref = pair
        _design, n, _arrangement = case
        expected = sum(20 + 5 * i for i in range(n)) + 10
        assert len(vec.nets) == expected

    def test_stacked_case_uses_vias(self, pair):
        case, vec, _ref = pair
        if case[2] != "stacked":
            pytest.skip("lateral arrangement")
        assert any(n.kind == "stacked_via" for n in vec.nets)


def test_tsv_stack_rejected():
    spec = get_spec("silicon_3d")
    assert spec.style is IntegrationStyle.TSV_STACK
    plans = [plan_for_design(spec, "logic"),
             plan_for_design(spec, "memory")]
    placement = place_chiplets(spec, plans, ["logic", "memory"], "grid")
    pin_map = {f"chiplet{i}": plans[i].signal_positions()
               for i in range(2)}
    with pytest.raises(ValueError):
        route_interposer_pins(
            placement, pin_map,
            [PinLink("chiplet0", "chiplet1", "l2m", 5, "c0_1_l2m")])
