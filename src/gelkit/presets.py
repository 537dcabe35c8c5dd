"""Bundled model instances used throughout tests and as CLI shortcuts.

Three families:

* ``multiplicative`` -- one conserved coordinate (mass), rate = product of
  masses, a single unit-mass atom.  The classical exactly solvable case.
* ``bidisperse`` -- the multiplicative kernel started from two mass species.
* ``kinetic_gas`` -- mass/energy/momentum coordinates with rate
  ``|v - w|^2``; the four-atom default is a quadrature matching the
  standard 3-d Maxwellian's energy moments (<|v|^2> = 3, <|v|^4> = 15)
  exactly, so spectral quantities agree with the Gaussian ideal.
"""

from __future__ import annotations

import math

import numpy as np

from .system import AtomicMeasure, BilinearSystem

__all__ = [
    "multiplicative",
    "bidisperse",
    "kinetic_gas",
    "kinetic_gas_sample",
    "PRESETS",
    "from_name",
]


def multiplicative() -> tuple[BilinearSystem, AtomicMeasure]:
    """Mass-product kernel, monodisperse unit-mass start."""
    sys = BilinearSystem(1, 0, [[1.0]], np.zeros((0, 0)), ("absorbed", "mass"))
    measure = AtomicMeasure([[1.0, 1.0]], [1.0], 1)
    return sys, measure


def bidisperse(
    masses: tuple[float, float] = (1.0, 2.0),
    weights: tuple[float, float] = (0.5, 0.5),
) -> tuple[BilinearSystem, AtomicMeasure]:
    """Mass-product kernel started from two mass species."""
    sys = BilinearSystem(1, 0, [[1.0]], np.zeros((0, 0)), ("absorbed", "mass"))
    measure = AtomicMeasure([[1.0, v] for v in masses], weights, 1)
    return sys, measure


_KINETIC_NAMES = (
    "absorbed",
    "mass",
    "energy",
    "momentum_x",
    "momentum_y",
    "momentum_z",
)


def _kinetic_system() -> BilinearSystem:
    # rate(x, y) = mass_x energy_y + energy_x mass_y - 2 v_x . v_y,
    # which is |v_x - v_y|^2 for unit masses.
    return BilinearSystem(
        2,
        3,
        [[0.0, 1.0], [1.0, 0.0]],
        -2.0 * np.eye(3),
        _KINETIC_NAMES,
    )


def _velocity_measure(v: np.ndarray) -> AtomicMeasure:
    # one unit-mass atom per velocity row, weighted uniformly
    energy = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
    ones = np.ones(len(v))
    rows = np.column_stack((ones, ones, energy, v))
    return AtomicMeasure(rows, ones / len(v), 2)


def kinetic_gas() -> tuple[BilinearSystem, AtomicMeasure]:
    """Four-velocity quadrature of the Maxwellian relative-speed model.

    Speeds sqrt(3 -+ sqrt(6)) on two axes, weight 1/4 each: reproduces the
    Gaussian energy moments <|v|^2> = 3 and <|v|^4> = 15 exactly and is
    mirror symmetric.
    """
    lo = math.sqrt(3.0 - math.sqrt(6.0))
    hi = math.sqrt(3.0 + math.sqrt(6.0))
    vel = np.array(
        [(lo, 0.0, 0.0), (-lo, 0.0, 0.0), (0.0, hi, 0.0), (0.0, -hi, 0.0)]
    )
    return _kinetic_system(), _velocity_measure(vel)


def kinetic_gas_sample(
    k: int, seed: int, mirrored: bool = True
) -> tuple[BilinearSystem, AtomicMeasure]:
    """Monte Carlo variant: ``k`` Maxwellian velocity draws.

    With ``mirrored=True`` each draw contributes both ``v`` and ``-v`` at
    half weight, enforcing mirror symmetry atom by atom; without it the
    sample is generically asymmetric (useful for exercising the hypothesis
    checker's failure path).
    """
    if k < 1:
        raise ValueError("need at least one velocity draw")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6B696E)))
    vel = rng.standard_normal((k, 3))
    if mirrored:  # v, -v for each draw, in draw order
        vel = np.stack((vel, -vel), axis=1).reshape(-1, 3)
    return _kinetic_system(), _velocity_measure(vel)


PRESETS = {
    "multiplicative": multiplicative,
    "bidisperse": bidisperse,
    "kinetic-gas": kinetic_gas,
}


def from_name(name: str) -> tuple[BilinearSystem, AtomicMeasure]:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return factory()
