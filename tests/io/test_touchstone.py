"""Touchstone S-parameter I/O tests."""

from typing import List, Tuple

import numpy as np
import pytest

from repro.circuit.twoport import TwoPort
from repro.io.touchstone import (SParameterData, sample_two_port,
                                 write_touchstone)
from repro.tech.interconnect3d import tgv_model

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def read_touchstone(path: str) -> SParameterData:
    """Read a 2-port Touchstone v1 file (S-parameters, RI/MA/DB formats).

    Raises:
        ValueError: For non-S data or malformed lines.
    """
    unit = 1e9  # Touchstone default is GHz
    fmt = "ma"  # Touchstone default format
    z0 = 50.0
    rows: List[Tuple[float, List[float]]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].lower().split()
                i = 0
                while i < len(tokens):
                    t = tokens[i]
                    if t in _FREQ_UNITS:
                        unit = _FREQ_UNITS[t]
                    elif t in ("ri", "ma", "db"):
                        fmt = t
                    elif t == "s":
                        pass
                    elif t in ("y", "z", "g", "h"):
                        raise ValueError(f"unsupported parameter type "
                                         f"{t.upper()!r}")
                    elif t == "r":
                        i += 1
                        z0 = float(tokens[i])
                    i += 1
                continue
            parts = [float(p) for p in line.split()]
            if len(parts) != 9:
                raise ValueError(f"expected 9 columns for a 2-port line, "
                                 f"got {len(parts)}")
            rows.append((parts[0] * unit, parts[1:]))

    freqs = np.array([r[0] for r in rows])
    s = np.zeros((len(rows), 2, 2), dtype=complex)
    for k, (_, vals) in enumerate(rows):
        pairs = [(vals[2 * i], vals[2 * i + 1]) for i in range(4)]
        cplx = [_to_complex(a, b, fmt) for a, b in pairs]
        # Column order S11 S21 S12 S22.
        s[k, 0, 0], s[k, 1, 0], s[k, 0, 1], s[k, 1, 1] = cplx
    return SParameterData(frequencies_hz=freqs, s=s, z0=z0)


def _to_complex(a: float, b: float, fmt: str) -> complex:
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        return a * np.exp(1j * np.deg2rad(b))
    if fmt == "db":
        return 10 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
    raise ValueError(f"unknown format {fmt!r}")


def tgv_response(n=20):
    rlc = tgv_model()
    freqs = np.logspace(6, 10, n)
    return sample_two_port(
        lambda f: TwoPort.from_rlc_pi(rlc, f), freqs)


class TestSampling:
    def test_shape(self):
        data = tgv_response()
        assert data.s.shape == (20, 2, 2)

    def test_passivity(self):
        assert tgv_response().is_passive()

    def test_losses_monotone_sensible(self):
        data = tgv_response()
        il = data.insertion_loss_db()
        assert (il <= 1e-9).all()          # passive: |S21| <= 1
        assert il[0] > -0.5                # transparent at 1 MHz

    def test_validation(self):
        with pytest.raises(ValueError):
            SParameterData(np.array([1e6, 2e6]),
                           np.zeros((3, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            SParameterData(np.array([2e6, 1e6]),
                           np.zeros((2, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            SParameterData(np.array([1e6]),
                           np.zeros((1, 2, 2), dtype=complex), z0=0.0)


class TestRoundTrip:
    def test_ri_roundtrip(self, tmp_path):
        data = tgv_response()
        path = str(tmp_path / "tgv.s2p")
        write_touchstone(data, path, comment="TGV 30um/155um")
        back = read_touchstone(path)
        assert np.allclose(back.frequencies_hz, data.frequencies_hz)
        assert np.allclose(back.s, data.s, atol=1e-8)
        assert back.z0 == pytest.approx(50.0)

    def test_comment_preserved_as_comment(self, tmp_path):
        path = str(tmp_path / "c.s2p")
        write_touchstone(tgv_response(4), path, comment="line one")
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("! line one")
