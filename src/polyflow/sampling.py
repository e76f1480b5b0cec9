"""Deterministic cross-language random configurations.

Coordinates come from a 64-bit linear congruential generator (multiplier
6364136223846793005, increment 1442695040888963407, modulus 2**64).
Each draw advances the state once and maps the top 53 bits to [0, 1);
coordinates are stretched to [-1, 1) and consumed vertex by vertex in
x, y, z order.  The initial state is the seed itself.  This is fully
specified so results can be reproduced outside this library.
"""

from __future__ import annotations

import numpy as np

from . import elements
from .sphere import pi

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1

F_REJECT = 1e-6


class Lcg:
    """The documented 64-bit linear congruential generator."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_uint(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state

    def next_unit(self) -> float:
        """Uniform in [0, 1): top 53 bits of the next state."""
        return (self.next_uint() >> 11) / float(1 << 53)

    def next_coord(self) -> float:
        """Uniform in [-1, 1): 2u - 1 for u = :meth:`next_unit` < 1."""
        return 2.0 * self.next_unit() - 1.0


def random_configuration(kind: str, seed: int,
                         variant: str = elements.GRADIENT) -> np.ndarray:
    """Seeded random configuration with coordinates i.i.d. uniform in [-1, 1).

    Configurations whose f value after projection to N is within
    ``F_REJECT`` of zero are rejected and redrawn, so sampling never
    starts on the measure-zero degenerate level set.  A kind or variant
    miss raises ValueError before any draw.
    """
    elements._check_kind(kind, variant)
    gen = Lcg(seed)
    n = elements.VERTEX_COUNT[kind]
    while True:
        p = np.array([[gen.next_coord() for _ in range(3)] for _ in range(n)])
        try:
            q = pi(p)
        except ValueError:
            continue
        if abs(elements.f_value(kind, variant, q)) >= F_REJECT:
            return p
