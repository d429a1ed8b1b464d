"""Region geometry in the u plane.

The potential-singularity set D is the circle of radius 1/sqrt(3) together
with the real segments [-1, -1/3] and [1/3, 1].  Omega is the finite
component of the complement of D (the open disk slit along the two real
segments); it is the region where the zeta function is given directly by the
torus integral.  Y is the plane minus the eight special points
+-1/3, +-1/sqrt(3), +-i/sqrt(3), +-1; it is the largest set over which the
analytically continued zeta function lives.
"""

from __future__ import annotations

import enum
import math

SQRT3 = math.sqrt(3.0)
OMEGA_RADIUS = 1.0 / SQRT3
REGION_TOL = 1e-12  # distance within which a point counts as on D or excluded

# Points removed from Y, in no particular order.
EXCLUDED_POINTS = (
    complex(1 / 3, 0),
    complex(-1 / 3, 0),
    complex(OMEGA_RADIUS, 0),
    complex(-OMEGA_RADIUS, 0),
    complex(0, OMEGA_RADIUS),
    complex(0, -OMEGA_RADIUS),
    complex(1, 0),
    complex(-1, 0),
)


class RegionTag(enum.Enum):
    IN_OMEGA = "in_omega"
    ON_D = "on_d"
    OUTSIDE_OMEGA_IN_Y = "outside_omega_in_y"
    EXCLUDED_POINT = "excluded_point"


def classify_u(u) -> RegionTag:
    """Classify a point of the u plane relative to D, Omega and Y.

    Points within REGION_TOL of one of the eight excluded points classify as
    EXCLUDED_POINT; points within REGION_TOL of the circle or of the two real
    segments classify as ON_D.
    """
    u = complex(u)
    for p in EXCLUDED_POINTS:
        if abs(u - p) <= REGION_TOL:
            return RegionTag.EXCLUDED_POINT
    if abs(abs(u) - OMEGA_RADIUS) <= REGION_TOL:
        return RegionTag.ON_D
    if abs(u.imag) <= REGION_TOL and (1 / 3 - REGION_TOL) <= abs(u.real) <= 1 + REGION_TOL:
        return RegionTag.ON_D
    if abs(u) < OMEGA_RADIUS:
        return RegionTag.IN_OMEGA
    return RegionTag.OUTSIDE_OMEGA_IN_Y


def is_in_omega(u) -> bool:
    return classify_u(u) is RegionTag.IN_OMEGA
