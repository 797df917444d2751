"""Parameter containers for the emitter-cavity system.

Conventions
-----------
* every rate and detuning is an angular frequency in rad/s,
* ``delta_ca = omega_cavity - omega_emitter`` (signed),
* the total cavity decay ``kappa = kappa_wg + kappa_sc`` is always
  derived, never stored,
* the quality factor uses ``Q = omega / kappa``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT

# Default optical carrier: 737 nm zero-phonon line.
DEFAULT_WAVELENGTH = 737e-9
DEFAULT_OMEGA = 2.0 * math.pi * SPEED_OF_LIGHT / DEFAULT_WAVELENGTH


def _power_of_two_scaled(values: Sequence[float]) -> tuple[int, tuple[float, ...]]:
    """(e, values / 2^e), with 2^e the power of two at or above the largest |value|.

    Dividing by a power of two is exact in the normal float range. A
    ratio of products of equal degree in the values (reflectivity, beta,
    I, cooperativity) is therefore unchanged by the scaling, 2^k-scaled
    inputs give bit-identical results, and no square or higher product
    of the scaled values, all at most 1 in magnitude, can overflow.
    """
    _, exponent = math.frexp(max(map(abs, values)))
    return exponent, tuple([math.ldexp(v, -exponent) for v in values])


@dataclass(frozen=True, kw_only=True)
class SystemParams:
    """Rates of the driven-dissipative emitter-cavity system.

    Parameters
    ----------
    g : float
        Emitter-cavity coupling, rad/s.
    kappa_wg : float
        Cavity decay into the access waveguide, rad/s.
    kappa_sc : float
        Residual cavity loss (scattering, absorption), rad/s.
    gamma : float
        Emitter energy decay into non-cavity modes, rad/s.
    gamma_star : float
        Pure dephasing rate of the emitter, entering the master equation
        through the excited-state projector jump operator as printed,
        rad/s.
    delta_ca : float
        Cavity-emitter detuning ``omega_c - omega_a``, rad/s.
    omega : float
        Optical carrier frequency, rad/s. Only used for quantities that
        need the absolute frequency (quality factor, mode volume).
    """

    g: float
    kappa_wg: float
    gamma: float
    kappa_sc: float = 0.0
    gamma_star: float = 0.0
    delta_ca: float = 0.0
    omega: float = DEFAULT_OMEGA

    def __post_init__(self) -> None:
        for name in ("g", "kappa_wg", "kappa_sc", "gamma", "gamma_star"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not np.isfinite(self.delta_ca):
            raise ValueError(f"delta_ca must be finite, got {self.delta_ca!r}")
        if not np.isfinite(self.omega) or self.omega <= 0.0:
            raise ValueError(f"omega must be finite and > 0, got {self.omega!r}")

    @property
    def kappa(self) -> float:
        """Total cavity energy decay rate, rad/s."""
        return self.kappa_wg + self.kappa_sc

    @property
    def gamma_coherence(self) -> float:
        """Total coherence decay of the optical dipole, ``gamma + 2*gamma_star``."""
        return self.gamma + 2.0 * self.gamma_star

    @property
    def quality_factor(self) -> float:
        """Loaded cavity quality factor ``omega / kappa``."""
        kappa = self.kappa
        if kappa <= 0.0:
            raise ValueError("quality factor undefined for kappa == 0")
        return self.omega / kappa

    @property
    def wavelength(self) -> float:
        """Vacuum wavelength of the carrier, metres."""
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.omega

    def cooperativity(self) -> float:
        """C = 4 g^2 / (kappa * gamma), on rates scaled by ``_power_of_two_scaled``."""
        if self.kappa * self.gamma <= 0.0:
            raise ValueError("cooperativity undefined for kappa*gamma == 0")
        _, (g, kappa, gamma) = _power_of_two_scaled((self.g, self.kappa, self.gamma))
        return 4.0 * g**2 / (kappa * gamma)


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated product space of a two-level emitter and one cavity mode.

    Basis ordering is fixed: state ``|s, n>`` with ``s`` in {ground=0,
    excited=1} and photon number ``n`` in 0..n_max sits at index
    ``s*(n_max+1) + n``.
    """

    n_max: int = 1

    def __post_init__(self) -> None:
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def n_fock(self) -> int:
        return self.n_max + 1

    @property
    def dimension(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, excited: int, n: int) -> int:
        """Flat basis index of ``|s, n>``."""
        if excited not in (0, 1):
            raise ValueError("excited must be 0 (ground) or 1 (excited)")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"photon number {n} outside 0..{self.n_max}")
        return excited * (self.n_max + 1) + n


@dataclass(frozen=True)
class DipoleSpec:
    """Transition-dipole context for converting fields to coupling rates.

    ``orientation`` is either the string ``"aligned"`` (the dipole follows
    the local field direction, an upper bound) or a real unit 3-vector in
    the grid frame.
    """

    mu: float  # C*m
    orientation: str | tuple[float, float, float] = "aligned"
    overlap_xi: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu) or self.mu <= 0.0:
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")
        if not 0.0 < self.overlap_xi <= 1.0:
            raise ValueError(f"overlap_xi must be in (0, 1], got {self.overlap_xi!r}")
        if isinstance(self.orientation, str):
            if self.orientation != "aligned":
                raise ValueError(f"unknown orientation {self.orientation!r}")
        else:
            axis = np.asarray(self.orientation, dtype=float)
            if axis.shape != (3,) or not np.all(np.isfinite(axis)):
                raise ValueError("orientation axis must be a finite 3-vector")
            norm = float(np.linalg.norm(axis))
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"orientation axis must have unit norm, got |v|={norm}")

    @property
    def axis(self) -> np.ndarray | None:
        if isinstance(self.orientation, str):
            return None
        return np.asarray(self.orientation, dtype=float)


__all__ = [
    "SystemParams",
    "HilbertSpec",
    "DipoleSpec",
    "DEFAULT_OMEGA",
    "DEFAULT_WAVELENGTH",
]
