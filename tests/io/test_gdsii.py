"""GDSII writer/reader tests."""

import struct

import pytest

from repro.io.gdsii import (GdsCell, GdsLabel, GdsLibrary, GdsPath,
                            GdsPolygon, _real8, read_gds, write_gds)


def _parse_real8(data: bytes) -> float:
    sign = -1.0 if data[0] & 0x80 else 1.0
    exponent = (data[0] & 0x7F) - 64
    mantissa = int.from_bytes(data[1:8], "big") / float(1 << 56)
    return sign * mantissa * (16.0 ** exponent)


def sample_library():
    cell = GdsCell(name="TOP")
    cell.polygons.append(GdsPolygon(1, [(0, 0), (10, 0), (10, 5),
                                        (0, 5)]))
    cell.polygons.append(GdsPolygon(2, [(1.5, 1.5), (3.25, 1.5),
                                        (2.0, 4.75)]))
    cell.paths.append(GdsPath(20, [(0, 0), (100, 0), (100, 50)], 2.0))
    cell.labels.append(GdsLabel(63, (5.0, 2.5), "hello"))
    return GdsLibrary(name="TESTLIB", cells=[cell])


class TestReal8:
    def test_zero(self):
        assert _parse_real8(_real8(0.0)) == 0.0

    @pytest.mark.parametrize("value", [1.0, -1.0, 1e-9, 0.001, 1000.0,
                                       3.14159, -2.5e-7])
    def test_roundtrip(self, value):
        assert _parse_real8(_real8(value)) == pytest.approx(value,
                                                            rel=1e-12)


class TestRoundTrip:
    def test_library_roundtrip(self, tmp_path):
        lib = sample_library()
        path = str(tmp_path / "test.gds")
        write_gds(lib, path)
        back = read_gds(path)
        assert back.name == "TESTLIB"
        cell = back.cell("TOP")
        assert len(cell.polygons) == 2
        assert len(cell.paths) == 1
        assert len(cell.labels) == 1

    def test_coordinates_preserved_to_nm(self, tmp_path):
        lib = sample_library()
        path = str(tmp_path / "t.gds")
        write_gds(lib, path)
        back = read_gds(path).cell("TOP")
        orig = sample_library().cell("TOP")
        for got, want in zip(back.polygons[1].points,
                             orig.polygons[1].points):
            assert got[0] == pytest.approx(want[0], abs=1e-3)
            assert got[1] == pytest.approx(want[1], abs=1e-3)

    def test_path_width_preserved(self, tmp_path):
        path = str(tmp_path / "t.gds")
        write_gds(sample_library(), path)
        back = read_gds(path).cell("TOP")
        assert back.paths[0].width_um == pytest.approx(2.0)

    def test_label_preserved(self, tmp_path):
        path = str(tmp_path / "t.gds")
        write_gds(sample_library(), path)
        label = read_gds(path).cell("TOP").labels[0]
        assert label.text == "hello"
        assert label.position == (5.0, 2.5)

    def test_layers_preserved(self, tmp_path):
        path = str(tmp_path / "t.gds")
        write_gds(sample_library(), path)
        cell = read_gds(path).cell("TOP")
        assert {p.layer for p in cell.polygons} == {1, 2}
        assert cell.paths[0].layer == 20
        assert cell.labels[0].layer == 63


class TestStreamValidity:
    def test_header_magic(self, tmp_path):
        path = str(tmp_path / "t.gds")
        write_gds(sample_library(), path)
        with open(path, "rb") as fh:
            length, rectype = struct.unpack(">HH", fh.read(4))
        assert rectype == 0x0002  # HEADER
        assert length == 6

    def test_all_records_even_length(self, tmp_path):
        path = str(tmp_path / "t.gds")
        write_gds(sample_library(), path)
        with open(path, "rb") as fh:
            data = fh.read()
        pos = 0
        while pos < len(data):
            length = struct.unpack(">H", data[pos:pos + 2])[0]
            assert length % 2 == 0 and length >= 4
            pos += length
        assert pos == len(data)

    def test_deterministic_output(self, tmp_path):
        p1 = str(tmp_path / "a.gds")
        p2 = str(tmp_path / "b.gds")
        write_gds(sample_library(), p1)
        write_gds(sample_library(), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestValidation:
    def test_polygon_needs_three_points(self):
        with pytest.raises(ValueError):
            GdsPolygon(1, [(0, 0), (1, 1)])

    def test_path_needs_two_points(self):
        with pytest.raises(ValueError):
            GdsPath(1, [(0, 0)], 1.0)

    def test_path_width_positive(self):
        with pytest.raises(ValueError):
            GdsPath(1, [(0, 0), (1, 1)], 0.0)

    def test_missing_cell_lookup(self):
        with pytest.raises(KeyError):
            GdsLibrary().cell("nope")

    def test_bbox(self):
        cell = sample_library().cell("TOP")
        x0, y0, x1, y1 = cell.bbox_um()
        assert (x0, y0) == (0.0, 0.0)
        assert x1 == 100.0 and y1 == 50.0

    def test_empty_bbox(self):
        assert GdsCell("E").bbox_um() is None
