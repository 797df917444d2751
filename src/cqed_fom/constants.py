"""Physical constants used across the package (SI units).

CODATA 2022 values, written out so that importing the package needs no
scipy; they equal ``scipy.constants`` (scipy >= 1.15) bit for bit.
"""

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m
HBAR = 1.0545718176461565e-34  # J*s, h / (2 pi) with h exact

# Dipole-moment ingestion constant, C*m per Debye.
DEBYE = 3.33564e-30

__all__ = ["SPEED_OF_LIGHT", "VACUUM_PERMITTIVITY", "HBAR", "DEBYE"]
