"""Cavity QED figures of merit for ultra-small mode volume cavities.

Lindblad dynamics of a two-level emitter coupled to a lossy cavity,
single-photon efficiency and indistinguishability, waveguide reflection
spectroscopy with spin contrast, and field-grid postprocessing (mode
volume, coupling maps, implantation statistics).
"""

from .constants import DEBYE
from .core import (
    build_hamiltonian,
    build_liouvillian,
    evolve,
    expectation,
    two_time_correlation,
)
from .errors import ConfigError, GridFormatError, NonConvergedError
from .fieldgrid import (
    FieldGrid,
    ScalarField,
    SynthModeSpec,
    g_field,
    load_grid,
    mode_volume,
    save_grid,
    synth_mode,
)
from .fom import (
    FomResult,
    cavity_efficiency,
    cooperativity,
    fom_sweep,
    g_from_mode_volume,
    indistinguishability,
    mode_volume_from_coupling,
)
from .implant import (
    GDistribution,
    ImplantRegion,
    implant_distribution,
    median_vs_D_curve,
    percentile_stats,
    violin_export,
    weighted_percentile,
)
from .params import DipoleSpec, HilbertSpec, SystemParams
from .reflection import (
    SpinConfig,
    Spectrum,
    contrast_curve,
    reflection_amplitude,
    reflectivity,
    spin_contrast,
    spin_spectra,
)

__version__ = "0.1.0"

__all__ = [
    "DEBYE",
    "__version__",
    "ConfigError",
    "GridFormatError",
    "NonConvergedError",
    "SystemParams",
    "HilbertSpec",
    "DipoleSpec",
    "build_hamiltonian",
    "build_liouvillian",
    "evolve",
    "expectation",
    "two_time_correlation",
    "FomResult",
    "cavity_efficiency",
    "indistinguishability",
    "cooperativity",
    "fom_sweep",
    "g_from_mode_volume",
    "mode_volume_from_coupling",
    "SpinConfig",
    "Spectrum",
    "reflection_amplitude",
    "reflectivity",
    "spin_spectra",
    "spin_contrast",
    "contrast_curve",
    "FieldGrid",
    "ScalarField",
    "SynthModeSpec",
    "synth_mode",
    "mode_volume",
    "g_field",
    "save_grid",
    "load_grid",
    "ImplantRegion",
    "GDistribution",
    "weighted_percentile",
    "percentile_stats",
    "implant_distribution",
    "violin_export",
    "median_vs_D_curve",
]
