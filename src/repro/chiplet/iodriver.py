"""AIB-style inter-chiplet I/O driver model.

The paper uses the I/O driver of Kim et al. (DAC'19), an Intel AIB-style
pipelined transceiver implemented in TSMC 28nm: a 128X-strength
transmitter with 47.4 ohm output impedance, a 16X receiver, support for
10 mm of interconnect, one pipeline cycle per chiplet crossing, and a
9.9 um x 9.4 um layout.  Since the macro itself is proprietary, this
module models its published interface quantities: area, drive impedance,
delay, and energy per bit — the numbers the paper's Tables III and V
actually consume.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IoDriverSpec:
    """Characterized AIB driver parameters.

    Attributes:
        name: Driver variant name.
        tx_strength: Transmitter strength multiplier (paper: 128X).
        rx_strength: Receiver strength multiplier (paper: 16X).
        output_impedance_ohm: TX Thevenin output impedance.
        rx_input_cap_ff: Receiver input (gate + pad ESD share) capacitance.
        pad_cap_ff: Micro-bump pad capacitance on each side.
        intrinsic_delay_ps: TX+RX chain delay at zero external load
            (the ~39.5 ps "IO drivers" delay column of Table V).
        energy_per_bit_fj: Internal TX+RX energy per transmitted bit,
            excluding the interconnect CV^2 (Table V "IO drivers" power
            at 700 MHz / 0.9 V).
        area_per_pin_um2: Amortized layout area per signal pin (Table III
            AIB area / signal-bump count = 75.3 um^2).
        macro_width_um: Full macro layout width (Fig. 6c).
        macro_height_um: Full macro layout height.
        max_length_mm: Longest interconnect the driver is rated for.
        pipelined: Whether a chiplet crossing costs one clock cycle.
        vdd: Supply voltage.
    """

    name: str = "AIB_x128"
    tx_strength: int = 128
    rx_strength: int = 16
    output_impedance_ohm: float = 47.4
    rx_input_cap_ff: float = 25.0
    pad_cap_ff: float = 20.0
    intrinsic_delay_ps: float = 38.2
    energy_per_bit_fj: float = 37.5
    area_per_pin_um2: float = 75.27
    macro_width_um: float = 9.9
    macro_height_um: float = 9.4
    max_length_mm: float = 10.0
    pipelined: bool = True
    vdd: float = 0.9

    def total_area_um2(self, num_signal_pins: int) -> float:
        """Total AIB layout area for a chiplet with that many signal pins."""
        if num_signal_pins < 0:
            raise ValueError("pin count cannot be negative")
        return self.area_per_pin_um2 * num_signal_pins

    def driver_delay_ps(self, load_ff: float = 0.0) -> float:
        """TX+RX chain delay driving an extra lumped load.

        The intrinsic term covers the internal stages plus the nominal pad
        load; extra interconnect load adds an RC term through the output
        impedance.
        """
        if load_ff < 0:
            raise ValueError("load cannot be negative")
        return (self.intrinsic_delay_ps
                + self.output_impedance_ohm * load_ff * 1e-3)

    def driver_power_uw(self, frequency_hz: float,
                        activity: float = 1.0) -> float:
        """Internal TX+RX power in microwatts.

        Args:
            frequency_hz: Bit clock (the paper runs links at 700 MHz).
            activity: Toggle probability per cycle (1.0 = every cycle,
                what the paper's worst-case monitor nets use).
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not 0 <= activity <= 1:
            raise ValueError("activity must be in [0, 1]")
        return self.energy_per_bit_fj * frequency_hz * activity * 1e-9


#: The driver used throughout the paper.
AIB_DRIVER = IoDriverSpec()

#: A weaker variant for short 3D hops (kept for ablation benches).
AIB_DRIVER_X64 = IoDriverSpec(name="AIB_x64", tx_strength=64,
                              output_impedance_ohm=94.8,
                              intrinsic_delay_ps=44.0,
                              energy_per_bit_fj=24.0)
