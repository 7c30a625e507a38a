"""Interposer physical design: die placement, RDL routing, PDN."""

from .pdn import PdnStackup, build_pdn
from .placement import (InterposerPlacement, PlacedDie, place_chiplets,
                        place_dies,
                        EDGE_MARGIN_25D_MM, EDGE_MARGIN_3D_MM)
from .routing import (InterposerRoute, PinLink, RoutedNet, RoutingGrid,
                      route_interposer, route_interposer_pins, tile_links)

__all__ = [
    "EDGE_MARGIN_25D_MM", "EDGE_MARGIN_3D_MM", "InterposerPlacement",
    "InterposerRoute", "PdnStackup", "PinLink", "PlacedDie", "RoutedNet",
    "RoutingGrid", "build_pdn", "place_chiplets",
    "place_dies", "route_interposer", "route_interposer_pins",
    "tile_links",
]
