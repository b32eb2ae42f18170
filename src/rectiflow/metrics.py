"""Evaluation metrics for corrected frames and warping trajectories.

Three families: line straightness (agreement of local segment directions
with each line's principal axis), shape fidelity (centered cosine
similarity of landmark sets), and trajectory stability (fraction of
spectral energy in the low-frequency band of the per-frame similarity
parameters, DC and bin 1 excluded). Scores are 0..100 for the first two
and 0..1 for stability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .trajectory import fits_of

DEFAULT_LOW_BAND = (2, 6)

# Stability is scored only on runs of at least this many frames.
MIN_STABILITY_FRAMES = 8

# Below this band energy a series is declared perfectly stable.
_STABLE_FLOOR = 1e-12


@dataclass(frozen=True)
class LineSample:
    """Ordered samples along one annotated line, (K, 2) as (x, y)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ShapeError(f"line sample must be (K, 2), got {pts.shape}")
        if pts.shape[0] < 3:
            raise DataError(f"line sample needs >= 3 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise DataError("line sample contains non-finite points")
        if np.any(np.all(np.diff(pts, axis=0) == 0.0, axis=1)):
            raise DataError("consecutive line sample points must be distinct")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class StabilityReport:
    """Low-band spectral energy fractions; higher means smoother."""

    avg: float
    translational: float
    rotational: float

    def __post_init__(self):
        for name in ("avg", "translational", "rotational"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise DataError(f"{name} must lie in [0, 1], got {val}")
        if abs(self.avg - 0.5 * (self.translational + self.rotational)) > 1e-12:
            raise DataError("avg must be the mean of translational and rotational")


def _principal_axis(centered: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[0]


def line_acc(lines) -> float:
    """Mean alignment of local segment directions with each line's axis.

    Per line: 100 * mean over consecutive segments of |cos| of the angle
    between the segment and the principal axis of the centered points;
    the overall score averages over lines. Collinear samples give 100.
    """
    lines = list(lines)
    if not lines:
        raise DataError("line_acc needs at least one line sample")
    scores = []
    for line in lines:
        pts = line.points
        axis = _principal_axis(pts - pts.mean(axis=0))
        segs = np.diff(pts, axis=0)
        lengths = np.sqrt(np.sum(segs * segs, axis=1))
        cosines = np.abs(segs @ axis) / lengths
        scores.append(100.0 * float(np.mean(cosines)))
    return float(np.mean(scores))


def shape_acc(ref, corr) -> float:
    """Centered cosine similarity of two landmark sets, scaled to 0..100."""
    ref = np.asarray(ref, dtype=np.float64)
    corr = np.asarray(corr, dtype=np.float64)
    if ref.shape != corr.shape or ref.ndim != 2 or ref.shape[1] != 2:
        raise ShapeError(f"landmark sets must share a (K, 2) shape, got {ref.shape} vs {corr.shape}")
    if ref.shape[0] < 3:
        raise DataError(f"shape_acc needs >= 3 landmarks, got {ref.shape[0]}")
    rc = (ref - ref.mean(axis=0)).ravel()
    cc = (corr - corr.mean(axis=0)).ravel()
    nr = float(np.linalg.norm(rc))
    nc = float(np.linalg.norm(cc))
    if nr == 0.0 or nc == 0.0:
        raise DataError("degenerate landmark set: all points coincide")
    cosine = float(np.dot(rc, cc)) / (nr * nc)
    return float(np.clip(100.0 * cosine, 0.0, 100.0))


def stability_series(trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame similarity-fit series: translation magnitude and rotation.

    trajectory: a TrajectorySeries or its per-frame fits (frame_fits).
    """
    fits = fits_of(trajectory)
    trans = np.array([np.hypot(fit.tx, fit.ty) for fit in fits], dtype=np.float64)
    rot = np.array([fit.theta for fit in fits], dtype=np.float64)
    return trans, rot


def _spectra(trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin spectral energy of the translation and rotation series."""
    trans, rot = stability_series(trajectory)
    return np.abs(np.fft.rfft(trans)) ** 2, np.abs(np.fft.rfft(rot)) ** 2


def _band_score(energy: np.ndarray, low_band: tuple[int, int]) -> float:
    half = energy.shape[0] - 1
    total = float(np.sum(energy[2:half + 1]))
    if total < _STABLE_FLOOR:
        return 1.0
    lo, hi = low_band
    low = float(np.sum(energy[lo:min(hi, half) + 1]))
    return min(low / total, 1.0)


def check_low_band(low_band: tuple[int, int], n_frames: int | None = None) -> None:
    """Reject a band that reaches below bin 2 or is empty.

    Given the frame count of a run, also reject a band that holds all of
    its scored bins 2..n_frames//2 or none of them: such a band scores the
    same whatever the motion. Runs too short to score stability pass.
    """
    lo, hi = low_band
    if lo < 2 or hi < lo:
        raise ConfigError(f"low_band must satisfy 2 <= lo <= hi, got {low_band}")
    if n_frames is None or n_frames < MIN_STABILITY_FRAMES:
        return
    half = n_frames // 2
    if lo > half or (lo == 2 and hi >= half):
        raise ConfigError(
            f"[metrics] low_band = {lo},{hi} must hold some but not all of the scored "
            f"bins 2..{half} of a {n_frames}-frame run"
        )


def stability_score(trajectory,
                    low_band: tuple[int, int] = DEFAULT_LOW_BAND) -> StabilityReport:
    """Low-frequency energy fraction of the warping trajectory.

    Fits a similarity transform to every frame's cumulative position
    field, then scores the translation-magnitude and rotation series by
    the energy in bins low_band[0]..low_band[1] relative to bins
    2..floor(N/2). A series with no energy above bin 1 scores 1. The band
    must pass check_low_band for the series' frame count. trajectory: a
    TrajectorySeries or its per-frame fits (frame_fits).
    """
    fits = fits_of(trajectory)
    n = len(fits)
    check_low_band(low_band, n)
    if n < MIN_STABILITY_FRAMES:
        raise ShapeError(f"stability needs >= {MIN_STABILITY_FRAMES} frames, got {n}")
    et, er = _spectra(fits)
    t_score = _band_score(et, low_band)
    r_score = _band_score(er, low_band)
    return StabilityReport(avg=0.5 * (t_score + r_score),
                           translational=t_score, rotational=r_score)


def spectrum_csv(trajectory) -> str:
    """Per-bin spectral energy of both stability series, for plotting.

    trajectory: a TrajectorySeries or its per-frame fits (frame_fits).
    """
    et, er = _spectra(trajectory)
    lines = ["bin,translational,rotational"]
    for k in range(et.shape[0]):
        lines.append(f"{k},{float(et[k])!r},{float(er[k])!r}")
    return "\n".join(lines) + "\n"
