"""Checks on interposer die placements that only the tests run."""

from repro.interposer.placement import InterposerPlacement


def overlaps(placement: InterposerPlacement) -> bool:
    """Whether any two same-level dies overlap (sanity invariant)."""
    for i, a in enumerate(placement.dies):
        for b in placement.dies[i + 1:]:
            if a.level != b.level:
                continue
            if (a.x_mm < b.x_mm + b.width_mm
                    and b.x_mm < a.x_mm + a.width_mm
                    and a.y_mm < b.y_mm + b.width_mm
                    and b.y_mm < a.y_mm + a.width_mm):
                return True
    return False
