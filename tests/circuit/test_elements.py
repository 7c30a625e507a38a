"""Unit tests for circuit element containers."""

import pytest

from repro.circuit.elements import Circuit, is_ground


class TestGround:
    def test_ground_names(self):
        assert is_ground("0")
        assert is_ground("gnd")
        assert is_ground("GND")
        assert not is_ground("vdd")


class TestCircuitConstruction:
    def test_nodes_registered(self):
        c = Circuit()
        c.add_resistor("R1", "a", "b", 10.0)
        assert set(c.nodes) == {"a", "b"}
        assert c.num_nodes() == 2

    def test_ground_not_a_node(self):
        c = Circuit()
        c.add_resistor("R1", "a", "0", 10.0)
        assert set(c.nodes) == {"a"}
        with pytest.raises(KeyError):
            c.node_index("0")

    def test_duplicate_element_name_rejected(self):
        c = Circuit()
        c.add_resistor("X", "a", "0", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            c.add_capacitor("X", "a", "0", 1e-12)

    def test_nonpositive_resistance_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_resistor("R", "a", "0", 0.0)

    def test_negative_capacitance_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_capacitor("C", "a", "0", -1e-12)

    def test_nonpositive_inductance_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_inductor("L", "a", "0", 0.0)

    def test_numeric_source_becomes_dc(self):
        c = Circuit()
        v = c.add_vsource("V", "a", "0", 1.5)
        assert v.waveform(0.0) == 1.5
        assert v.waveform(1.0) == 1.5

    def test_mutual_requires_known_inductors(self):
        c = Circuit()
        c.add_inductor("L1", "a", "0", 1e-9)
        with pytest.raises(KeyError):
            c.add_mutual("K", "L1", "L2", 0.5)

    def test_mutual_self_coupling_rejected(self):
        c = Circuit()
        c.add_inductor("L1", "a", "0", 1e-9)
        with pytest.raises(ValueError):
            c.add_mutual("K", "L1", "L1", 0.5)

    def test_mutual_k_range(self):
        c = Circuit()
        c.add_inductor("L1", "a", "0", 1e-9)
        c.add_inductor("L2", "b", "0", 1e-9)
        with pytest.raises(ValueError):
            c.add_mutual("K", "L1", "L2", 1.0)

    def test_inductor_position_tracking(self):
        c = Circuit()
        c.add_inductor("L1", "a", "0", 1e-9)
        c.add_inductor("L2", "b", "0", 1e-9)
        assert c.inductor_position("L1") == 0
        assert c.inductor_position("L2") == 1

    def test_element_count_and_summary(self):
        c = Circuit("mix")
        c.add_resistor("R", "a", "b", 1.0)
        c.add_capacitor("C", "b", "0", 1e-12)
        c.add_vsource("V", "a", "0", 1.0)
        assert c.element_count() == 3
        assert "mix" in c.summary()
        assert "1R" in c.summary()
