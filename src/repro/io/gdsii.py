"""Minimal GDSII stream writer/reader.

The paper's flow ends in "final graphic data system (GDS) layouts"; this
module lets the reproduction do the same: chiplet and interposer layouts
(see :mod:`repro.io.layout`) are emitted as real GDSII stream files that
any layout viewer (KLayout etc.) opens.

Only the record types needed for polygon/label layouts are implemented:
HEADER, BGNLIB, LIBNAME, UNITS, BGNSTR, STRNAME, BOUNDARY, PATH, LAYER,
DATATYPE, XY, WIDTH, TEXT, TEXTTYPE, STRING, ENDEL, ENDSTR, ENDLIB.  The
reader is a faithful inverse for round-trip testing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

# Record types.
_HEADER = 0x0002
_BGNLIB = 0x0102
_LIBNAME = 0x0206
_UNITS = 0x0305
_ENDLIB = 0x0400
_BGNSTR = 0x0502
_STRNAME = 0x0606
_ENDSTR = 0x0700
_BOUNDARY = 0x0800
_PATH = 0x0900
_TEXT = 0x0C00
_LAYER = 0x0D02
_DATATYPE = 0x0E02
_WIDTH = 0x0F03
_XY = 0x1003
_ENDEL = 0x1100
_TEXTTYPE = 0x1602
_STRING = 0x1906

#: Default database unit: 1 nm (in metres), user unit 1 um.
DB_UNIT_M = 1e-9
USER_UNIT_DB = 1000  # database units per user unit (um)


@dataclass
class GdsPolygon:
    """A closed polygon on one layer; coordinates in microns."""

    layer: int
    points: List[Tuple[float, float]]
    datatype: int = 0

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("polygon needs at least 3 points")


@dataclass
class GdsPath:
    """A wire path with width; coordinates in microns."""

    layer: int
    points: List[Tuple[float, float]]
    width_um: float
    datatype: int = 0

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("path needs at least 2 points")
        if self.width_um <= 0:
            raise ValueError("path width must be positive")


@dataclass
class GdsLabel:
    """A text label; position in microns."""

    layer: int
    position: Tuple[float, float]
    text: str
    texttype: int = 0


@dataclass
class GdsCell:
    """One GDSII structure (cell)."""

    name: str
    polygons: List[GdsPolygon] = field(default_factory=list)
    paths: List[GdsPath] = field(default_factory=list)
    labels: List[GdsLabel] = field(default_factory=list)

    def bbox_um(self) -> Optional[Tuple[float, float, float, float]]:
        """(xmin, ymin, xmax, ymax) over all geometry, or None if empty."""
        xs: List[float] = []
        ys: List[float] = []
        for poly in self.polygons:
            xs += [p[0] for p in poly.points]
            ys += [p[1] for p in poly.points]
        for path in self.paths:
            xs += [p[0] for p in path.points]
            ys += [p[1] for p in path.points]
        for label in self.labels:
            xs.append(label.position[0])
            ys.append(label.position[1])
        if not xs:
            return None
        return (min(xs), min(ys), max(xs), max(ys))


@dataclass
class GdsLibrary:
    """A GDSII library: named cells plus library metadata."""

    name: str = "REPRO"
    cells: List[GdsCell] = field(default_factory=list)

    def cell(self, name: str) -> GdsCell:
        """Look up a cell by name."""
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(f"no cell named {name!r}")


# --------------------------------------------------------------------- #
# Low-level record encoding.
# --------------------------------------------------------------------- #

def _record(rectype: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    if length % 2:
        raise ValueError("GDSII records must have even length")
    return struct.pack(">HH", length, rectype) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\0"
    return data


def _int2(*values: int) -> bytes:
    return struct.pack(f">{len(values)}h", *values)


def _int4(*values: int) -> bytes:
    return struct.pack(f">{len(values)}i", *values)


def _real8(value: float) -> bytes:
    """GDSII 8-byte excess-64 real."""
    if value == 0:
        return b"\0" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    # Normalize mantissa into [1/16, 1).
    while value >= 1:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(value * (1 << 56))
    return struct.pack(">B", sign | exponent) + \
        mantissa.to_bytes(7, "big")


def _xy(points: Sequence[Tuple[float, float]]) -> bytes:
    coords = []
    for x, y in points:
        coords.append(int(round(x * USER_UNIT_DB)))
        coords.append(int(round(y * USER_UNIT_DB)))
    return _int4(*coords)


# --------------------------------------------------------------------- #
# Writer.
# --------------------------------------------------------------------- #

def write_gds(library: GdsLibrary, path: str) -> None:
    """Write a library to a GDSII stream file.

    Args:
        library: The library to serialize.
        path: Output file path.
    """
    stamp = (2023, 1, 1, 0, 0, 0)  # deterministic timestamps
    with open(path, "wb") as fh:
        fh.write(_record(_HEADER, _int2(600)))
        fh.write(_record(_BGNLIB, _int2(*(stamp + stamp))))
        fh.write(_record(_LIBNAME, _ascii(library.name)))
        fh.write(_record(_UNITS, _real8(1.0 / USER_UNIT_DB)
                         + _real8(DB_UNIT_M)))
        for cell in library.cells:
            fh.write(_record(_BGNSTR, _int2(*(stamp + stamp))))
            fh.write(_record(_STRNAME, _ascii(cell.name)))
            for poly in cell.polygons:
                fh.write(_record(_BOUNDARY))
                fh.write(_record(_LAYER, _int2(poly.layer)))
                fh.write(_record(_DATATYPE, _int2(poly.datatype)))
                pts = list(poly.points)
                if pts[0] != pts[-1]:
                    pts.append(pts[0])  # GDSII closes explicitly
                fh.write(_record(_XY, _xy(pts)))
                fh.write(_record(_ENDEL))
            for p in cell.paths:
                fh.write(_record(_PATH))
                fh.write(_record(_LAYER, _int2(p.layer)))
                fh.write(_record(_DATATYPE, _int2(p.datatype)))
                fh.write(_record(_WIDTH,
                                 _int4(int(round(p.width_um
                                                 * USER_UNIT_DB)))))
                fh.write(_record(_XY, _xy(p.points)))
                fh.write(_record(_ENDEL))
            for label in cell.labels:
                fh.write(_record(_TEXT))
                fh.write(_record(_LAYER, _int2(label.layer)))
                fh.write(_record(_TEXTTYPE, _int2(label.texttype)))
                fh.write(_record(_XY, _xy([label.position])))
                fh.write(_record(_STRING, _ascii(label.text)))
                fh.write(_record(_ENDEL))
            fh.write(_record(_ENDSTR))
        fh.write(_record(_ENDLIB))


# --------------------------------------------------------------------- #
# Reader (round-trip verification).
# --------------------------------------------------------------------- #

def read_gds(path: str) -> GdsLibrary:
    """Parse a GDSII stream file written by :func:`write_gds`.

    Handles the record subset this module emits; raises ``ValueError``
    on anything else.
    """
    lib = GdsLibrary(name="")
    cell: Optional[GdsCell] = None
    element: Optional[str] = None
    layer = datatype = texttype = 0
    width_um = 0.0
    points: List[Tuple[float, float]] = []
    text = ""

    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if len(head) < 4:
                break
            length, rectype = struct.unpack(">HH", head)
            payload = fh.read(length - 4)
            if rectype == _LIBNAME:
                lib.name = payload.rstrip(b"\0").decode("ascii")
            elif rectype == _BGNSTR:
                cell = GdsCell(name="")
            elif rectype == _STRNAME:
                assert cell is not None
                cell.name = payload.rstrip(b"\0").decode("ascii")
            elif rectype == _ENDSTR:
                lib.cells.append(cell)
                cell = None
            elif rectype in (_BOUNDARY, _PATH, _TEXT):
                element = {_BOUNDARY: "boundary", _PATH: "path",
                           _TEXT: "text"}[rectype]
                points = []
                width_um = 0.0
                text = ""
            elif rectype == _LAYER:
                layer = struct.unpack(">h", payload)[0]
            elif rectype == _DATATYPE:
                datatype = struct.unpack(">h", payload)[0]
            elif rectype == _TEXTTYPE:
                texttype = struct.unpack(">h", payload)[0]
            elif rectype == _WIDTH:
                width_um = struct.unpack(">i", payload)[0] / USER_UNIT_DB
            elif rectype == _STRING:
                text = payload.rstrip(b"\0").decode("ascii")
            elif rectype == _XY:
                n = len(payload) // 8
                flat = struct.unpack(f">{2 * n}i", payload)
                points = [(flat[2 * i] / USER_UNIT_DB,
                           flat[2 * i + 1] / USER_UNIT_DB)
                          for i in range(n)]
            elif rectype == _ENDEL:
                assert cell is not None and element is not None
                if element == "boundary":
                    pts = points[:-1] if points[0] == points[-1] \
                        else points
                    cell.polygons.append(
                        GdsPolygon(layer, pts, datatype))
                elif element == "path":
                    cell.paths.append(
                        GdsPath(layer, points, width_um, datatype))
                else:
                    cell.labels.append(
                        GdsLabel(layer, points[0], text, texttype))
                element = None
            elif rectype in (_HEADER, _BGNLIB, _UNITS, _ENDLIB):
                pass
            else:
                raise ValueError(f"unsupported GDSII record 0x{rectype:04X}")
    return lib
