"""Coupling statistics over a lateral implantation-uncertainty disk.

An emitter implanted with lateral accuracy D lands uniformly within a
disk of diameter D centred on a target point, taken by default to be
the in-plane position of the dielectric coupling maximum. Depth
variation is ignored; the plane is fixed (by default at the depth of
that maximum). The resulting distribution of g is summarized by
weighted percentiles and exported as a histogram density for violin
plots.

Voxels enter the disk when their lateral centre lies within D/2 of the
target; there is no partial-area weighting, and voxels outside the
dielectric (holes, air) are excluded. Percentiles interpolate linearly
between weighted order statistics at midpoint positions
``(cumsum(w) - w/2) / sum(w)``, so two equal-weight samples {1, 3} have
median 2 and ties resolve by grid order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fieldgrid import ScalarField

PLANE_POLICIES = ("gmax-depth", "max-projection")


@dataclass(frozen=True)
class ImplantRegion:
    """Uniform implantation disk: lateral centre, diameter and depth plane.

    ``center`` is an (x, y) position in metres, or None to aim at the
    lateral position of the dielectric g-maximum. ``plane`` is a fixed
    depth index, the string "gmax-depth" (plane of the dielectric
    maximum, the default) or "max-projection" (per-column maximum of g
    over depth, restricted to dielectric voxels).
    """

    diameter: float
    center: tuple[float, float] | None = None
    plane: int | str = "gmax-depth"

    def __post_init__(self) -> None:
        if not np.isfinite(self.diameter) or self.diameter < 0.0:
            raise ValueError(f"diameter must be finite and >= 0, got {self.diameter!r}")
        if self.center is not None:
            c = tuple(float(v) for v in self.center)
            if len(c) != 2 or not all(np.isfinite(v) for v in c):
                raise ValueError("center must be a finite (x, y) pair in metres")
            object.__setattr__(self, "center", c)
        if isinstance(self.plane, str):
            if self.plane not in PLANE_POLICIES:
                raise ValueError(
                    f"plane must be an index, 'gmax-depth' or 'max-projection', got {self.plane!r}"
                )
        elif int(self.plane) != self.plane:
            raise ValueError("plane index must be an integer")


@dataclass(frozen=True)
class GDistribution:
    """Weighted samples of g over an implantation disk, with summary stats."""

    values: np.ndarray  # g per sample voxel, rad/s
    weights: np.ndarray  # voxel areas, m^2
    center: tuple[float, float]
    center_index: tuple[int, int]
    plane_index: int | None  # None for the depth-max projection
    diameter: float
    median: float = field(init=False)
    p25: float = field(init=False)
    p40: float = field(init=False)
    p60: float = field(init=False)
    p75: float = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or values.shape != weights.shape or values.size == 0:
            raise ValueError("values and weights must be equal-length nonempty 1-d arrays")
        if np.any(weights < 0.0) or weights.sum() <= 0.0:
            raise ValueError("weights must be >= 0 with positive total")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        p = weighted_percentile(values, weights, [25.0, 40.0, 50.0, 60.0, 75.0])
        object.__setattr__(self, "p25", float(p[0]))
        object.__setattr__(self, "p40", float(p[1]))
        object.__setattr__(self, "median", float(p[2]))
        object.__setattr__(self, "p60", float(p[3]))
        object.__setattr__(self, "p75", float(p[4]))

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())


def weighted_percentile(values, weights, q):
    """Weighted percentiles by linear interpolation between order statistics.

    Sorted samples sit at cumulative positions ``(cumsum(w) - w/2) / W``;
    queries interpolate linearly between them and clamp beyond the first
    and last sample. The sort is stable, so equal values keep grid order
    and results are reproducible.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.size == 0:
        raise ValueError("empty distribution")
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0) or np.any(q > 100.0):
        raise ValueError("percentiles must lie in [0, 100]")
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    total = w.sum()
    positions = (np.cumsum(w) - 0.5 * w) / total
    return np.interp(q / 100.0, positions, v)


def percentile_stats(dist: GDistribution, ps) -> np.ndarray:
    """Weighted percentiles of a distribution, one g value per requested p."""
    return weighted_percentile(dist.values, dist.weights, ps)


def _plane_values(gmap: ScalarField, plane: int | str):
    """(values, mask, plane_index) for the selected lateral plane."""
    mask = gmap.dielectric_mask
    if not mask.any():
        raise ValueError("grid contains no dielectric voxels")
    if plane == "max-projection":
        shielded = np.where(mask, gmap.values, -np.inf)
        values = shielded.max(axis=2)
        col_mask = mask.any(axis=2)
        values = np.where(col_mask, values, 0.0)
        return values, col_mask, None
    if plane == "gmax-depth":
        shielded = np.where(mask, gmap.values, -np.inf)
        k = int(np.unravel_index(np.argmax(shielded), shielded.shape)[2])
    else:
        k = int(plane)
        nz = gmap.shape[2]
        if not -nz <= k < nz:
            raise ValueError(f"plane index {k} outside grid of {nz} depth planes")
        k %= nz
    return gmap.values[:, :, k], mask[:, :, k], k


def implant_distribution(gmap: ScalarField, region: ImplantRegion) -> GDistribution:
    """Distribution of g over the implantation disk of ``region``.

    Includes every dielectric voxel of the selected plane whose lateral
    centre lies within ``diameter / 2`` of the centre, weighted by voxel
    area. ``diameter = 0`` returns exactly the centre voxel.
    """
    values, mask, plane_index = _plane_values(gmap, region.plane)
    xs, ys, _ = gmap.axes()
    if region.center is None:
        shielded = np.where(mask, values, -np.inf)
        ic, jc = np.unravel_index(np.argmax(shielded), shielded.shape)
        cx, cy = float(xs[ic]), float(ys[jc])
    else:
        cx, cy = region.center
        ic = int(np.argmin(np.abs(xs - cx)))
        jc = int(np.argmin(np.abs(ys - cy)))
    if not mask[ic, jc]:
        raise ValueError(
            f"implantation centre voxel ({ic}, {jc}) is not dielectric in the selected plane"
        )

    if region.diameter == 0.0:
        inside = np.zeros_like(mask)
        inside[ic, jc] = True
    else:
        r2 = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2
        inside = r2 <= (0.5 * region.diameter) ** 2
    selected = inside & mask
    if not selected.any():
        raise ValueError("implantation disk contains no dielectric voxels")
    # C-order enumeration fixes the sample order for stable-sort tie breaks
    vals = values[selected]
    area = gmap.dx * gmap.dy
    return GDistribution(
        values=vals,
        weights=np.full(vals.shape, area),
        center=(cx, cy),
        center_index=(int(ic), int(jc)),
        plane_index=plane_index,
        diameter=region.diameter,
    )


@dataclass(frozen=True)
class ViolinData:
    """Histogram density plus box-and-whisker summary of a distribution."""

    bin_edges: np.ndarray
    bin_centers: np.ndarray
    density: np.ndarray
    median: float
    p25: float
    p75: float
    whisker_low: float
    whisker_high: float


def violin_export(dist: GDistribution, n_bins: int = 64) -> ViolinData:
    """Weighted histogram density over [min, max] with quartile box.

    The density integrates to 1; a single-valued distribution widens its
    span symmetrically so one bin carries everything. Whiskers extend
    1.5 interquartile ranges beyond the box, clipped to the data range.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    lo, hi = dist.min, dist.max
    if hi <= lo:
        # degenerate span: widen enough that edge rounding stays far
        # below the 1e-9 normalization budget
        pad = max(abs(lo), 1.0) * 1e-6
        lo, hi = lo - pad, hi + pad
    density, edges = np.histogram(
        dist.values, bins=n_bins, range=(lo, hi), weights=dist.weights, density=True
    )
    iqr = dist.p75 - dist.p25
    return ViolinData(
        bin_edges=edges,
        bin_centers=0.5 * (edges[:-1] + edges[1:]),
        density=density,
        median=dist.median,
        p25=dist.p25,
        p75=dist.p75,
        whisker_low=max(dist.p25 - 1.5 * iqr, dist.min),
        whisker_high=min(dist.p75 + 1.5 * iqr, dist.max),
    )


def median_vs_D_curve(
    gmap: ScalarField,
    diameters,
    center: tuple[float, float] | None = None,
    plane: int | str = "gmax-depth",
) -> np.ndarray:
    """Rows of (D, median, p40, p60) over implantation diameters.

    The centre resolves once (default: dielectric g-maximum), so every
    diameter shares the same target and the supports are nested.
    """
    diameters = np.asarray(diameters, dtype=float)
    if diameters.size == 0:
        raise ValueError("need at least one diameter")
    probe = implant_distribution(
        gmap, ImplantRegion(diameter=0.0, center=center, plane=plane)
    )
    rows = np.empty((diameters.size, 4))
    for i, d in enumerate(diameters):
        dist = implant_distribution(
            gmap, ImplantRegion(diameter=float(d), center=probe.center, plane=plane)
        )
        rows[i] = (d, dist.median, dist.p40, dist.p60)
    return rows


__all__ = [
    "ImplantRegion",
    "GDistribution",
    "ViolinData",
    "weighted_percentile",
    "percentile_stats",
    "implant_distribution",
    "violin_export",
    "median_vs_D_curve",
]
