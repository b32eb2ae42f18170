"""Correction-trajectory algebra.

A per-frame correction flow applied to a jittery video moves rectified
content around; the residual field r(t+1) measures how far corresponding
content travels between consecutive corrected frames, and the trajectory
R(t) accumulates those residuals. Residuals use the backward-flow form:
the forward inter-frame flow is sampled where each backward correction
field makes frame t's corrected pixel read.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DirectionError, ShapeError
from .field import Direction, FlowField, _bilinear, make_grid
# Re-exported: the benchmark smoke test calls trajectory.compose_displaced.
from .field import compose_displaced  # noqa: F401

_SUMMARY_MARGIN = 2  # boundary pixels excluded from summaries to avoid clamp bias


@dataclasses.dataclass(frozen=True)
class TrajectorySeries:
    """Residuals r(t) and the cumulative positions R(t) derived from them,
    t = 1..N.

    Both are (N, H, W, 2) arrays. r(1) must be identically zero, and
    R(t) = sum of r(1..t) with exact ascending addition order.
    """

    residuals: np.ndarray
    positions: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=np.float64)
        if r.ndim != 4 or r.shape[3] != 2:
            raise ShapeError(f"residuals must be an (N, H, W, 2) array, got {r.shape}")
        object.__setattr__(self, "residuals", r)
        object.__setattr__(self, "positions", np.stack([pos for _, pos in _prefix_sums(r)]))

    @property
    def n_frames(self) -> int:
        return self.residuals.shape[0]

    def mean_displacements(self) -> np.ndarray:
        """Per-frame mean of R(t) over the _interior, shape (N, 2)."""
        return _interior(self.positions).mean(axis=(1, 2))


def _interior(fields: np.ndarray) -> np.ndarray:
    """(..., H, W, 2) fields without a _SUMMARY_MARGIN border, which clamped
    resampling biases; whole when too small to have an interior."""
    m = _SUMMARY_MARGIN
    if min(fields.shape[-3:-1]) > 2 * m:
        return fields[..., m:-m, m:-m, :]
    return fields


def _require(flow: FlowField, direction: Direction, name: str) -> FlowField:
    if flow.direction is not direction:
        raise DirectionError(f"{name} must be {direction.value}, got {flow.direction.value}")
    return flow


def backward_residuals(f_seq, f_fwd_seq, with_slopes: bool = False):
    """Backward residual of each consecutive pair, one pair at a time.

    Yields, for t = 1..N-1, r(t+1) = f_fwd(p + F_t(p)) + F_t(p) - F_{t+1}(p)
    as a (u, v) pair of (H, W) arrays. Both inputs are iterated once, so
    they may produce their fields as they go; callers check that there is
    one inter-frame flow per pair. Both inter-frame flow channels are
    sampled once, through one shared bilinear stencil. With with_slopes,
    each item is (residual, slopes), where slopes holds
    ((du/dx, du/dy), (dv/dx, dv/dy)): the derivatives of the sampled
    inter-frame flow with respect to the sample position, zero where the
    clamped border pinned the position.
    """
    grid = None
    fields = iter(f_seq)
    f_t = next(fields, None)
    for f_t1, f_fwd in zip(fields, f_fwd_seq):
        _require(f_t, Direction.BACKWARD, "F_t")
        _require(f_t1, Direction.BACKWARD, "F_t1")
        _require(f_fwd, Direction.FORWARD, "f_fwd")
        if not (f_t.shape == f_t1.shape == f_fwd.shape):
            raise ShapeError("all fields must share dimensions")
        if grid is None or (grid.height, grid.width) != f_t.shape:
            grid = make_grid(*f_t.shape)
        sampled = _bilinear((f_fwd.u, f_fwd.v), grid.x + f_t.u, grid.y + f_t.v, with_slopes)
        residual = tuple(s[0] for s in sampled) if with_slopes else tuple(sampled)
        for moved, ch_t, ch_t1 in zip(residual, (f_t.u, f_t.v), (f_t1.u, f_t1.v)):
            moved += ch_t
            moved -= ch_t1
        yield (residual, tuple(s[1:] for s in sampled)) if with_slopes else residual
        f_t = f_t1


def residual_backward(f_t: FlowField, f_t1: FlowField, f_fwd: FlowField) -> np.ndarray:
    """Residual between consecutive frames under backward correction flows.

    r(t+1) = f_fwd(p + F_t(p)) + F_t(p) - F_{t+1}(p): the inter-frame
    motion evaluated where frame t's corrected pixel actually samples,
    plus the change in correction. Zero when corrections are mutually
    consistent with the motion.
    """
    (residual,) = backward_residuals([f_t, f_t1], [f_fwd])
    return np.stack(residual, axis=-1)


def _prefix_sums(residuals):
    """Yield (r(t), R(t)) with R(1) = r(1) = 0 and R(t) = R(t-1) + r(t),
    an exact ascending prefix sum, one (H, W, 2) residual at a time."""
    pos = None
    for r in residuals:
        if pos is None:
            if np.any(r != 0.0):
                raise ContractError("first residual must be identically zero")
            pos = r.copy()
        else:
            pos = pos + r
        yield r, pos


def accumulate(residuals) -> TrajectorySeries:
    """Prefix-sum residuals into positions; the leading residual must be zero."""
    return TrajectorySeries(np.stack([np.asarray(x, dtype=np.float64) for x in residuals]))


def _residual_stream(f_seq, f_fwd_seq):
    """r(1) = 0 and then each backward residual r(t), as (H, W, 2) arrays;
    the counts are checked before the first field is read."""
    if len(f_seq) < 1:
        raise ShapeError("need at least one correction field")
    if len(f_fwd_seq) != len(f_seq) - 1:
        raise ShapeError(
            f"{len(f_seq)} correction fields need {len(f_seq) - 1} inter-frame flows, "
            f"got {len(f_fwd_seq)}"
        )
    fields = iter(f_seq)
    first = next(fields)
    yield np.zeros(first.shape + (2,))
    for r in backward_residuals(itertools.chain([first], fields), f_fwd_seq):
        yield np.stack(r, axis=-1)


def trajectory_steps(f_seq, f_fwd_seq):
    """The trajectory of a corrected sequence, one frame at a time.

    f_seq: N backward correction fields; f_fwd_seq: N-1 forward
    inter-frame flows (t -> t+1). Both need a length and one pass of
    iteration, so they may parse their fields as they go: the generator
    holds two correction fields, one flow and one residual and position
    at a time. Yields (r(t), R(t)) as (H, W, 2) arrays for t = 1..N:
    r(1) is zero, later residuals use the backward formulation and R(t)
    is the prefix sum of accumulate. The counts are checked before the
    first field is read.
    """
    return _prefix_sums(_residual_stream(f_seq, f_fwd_seq))


def trajectory_of_sequence(f_seq, f_fwd_seq) -> TrajectorySeries:
    """Trajectory of a corrected sequence from its flows: the residuals of
    trajectory_steps, stacked. A single-frame sequence yields the trivial
    zero series.
    """
    return TrajectorySeries(np.stack(list(_residual_stream(list(f_seq), list(f_fwd_seq)))))


def fit_similarity(field) -> tuple[float, float, float, float]:
    """Least-squares similarity transform explaining a displacement field.

    Models the field as d(p) = (M - I)(p - c) + t with M a scaled rotation
    and c the grid centroid; returns (tx, ty, theta, scale). On a full
    grid the normal equations decouple, giving a closed form.
    """
    if isinstance(field, FlowField):
        dx, dy = field.u, field.v
    else:
        arr = np.asarray(field, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ShapeError(f"expected FlowField or (H, W, 2) array, got {arr.shape}")
        dx, dy = arr[..., 0], arr[..., 1]
    h, w = dx.shape
    grid = make_grid(h, w)
    xc = grid.x - (w - 1) / 2.0
    yc = grid.y - (h - 1) / 2.0
    s2 = float(np.sum(xc * xc) + np.sum(yc * yc))
    tx = float(np.mean(dx))
    ty = float(np.mean(dy))
    if s2 == 0.0:  # single-pixel grid: translation only
        return tx, ty, 0.0, 1.0
    a = 1.0 + float(np.sum(xc * dx + yc * dy)) / s2
    b = float(np.sum(xc * dy - yc * dx)) / s2
    return tx, ty, float(np.arctan2(b, a)), float(np.hypot(a, b))


class FrameFit(NamedTuple):
    """One frame of a trajectory: the interior mean of r(t) and the
    similarity fit of R(t). Every per-frame output is built from these."""

    mean_rx: float
    mean_ry: float
    tx: float
    ty: float
    theta: float


def frame_fits(steps) -> list[FrameFit]:
    """The FrameFit of each (r(t), R(t)) pair, as trajectory_steps yields
    them; the residual mean is taken over the _interior."""
    fits = []
    for r, pos in steps:
        inner = _interior(r)
        tx, ty, theta, _ = fit_similarity(pos)
        fits.append(FrameFit(float(inner[..., 0].mean()), float(inner[..., 1].mean()),
                             tx, ty, theta))
    return fits


def fits_of(trajectory) -> list[FrameFit]:
    """The per-frame fits of a TrajectorySeries; a sequence of FrameFit,
    as frame_fits returns, passes through as a list."""
    if isinstance(trajectory, TrajectorySeries):
        return frame_fits(zip(trajectory.residuals, trajectory.positions))
    return list(trajectory)


def trajectory_csv(trajectory) -> str:
    """CSV summary: per frame the mean residual and the similarity fit of R(t).

    trajectory: a TrajectorySeries or its per-frame fits.
    """
    rows = ["t,mean_rx,mean_ry,tx,ty,theta"]
    for t, fit in enumerate(fits_of(trajectory)):
        rows.append(f"{t + 1},{fit.mean_rx!r},{fit.mean_ry!r},{fit.tx!r},{fit.ty!r},{fit.theta!r}")
    return "\n".join(rows) + "\n"
