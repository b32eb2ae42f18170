"""Correction-trajectory algebra.

A per-frame correction flow applied to a jittery video moves rectified
content around; the residual field r(t+1) measures how far corresponding
content travels between consecutive corrected frames, and the trajectory
R(t) accumulates those residuals. Two residual formulations are provided:
the backward-flow form (used by the pipeline) and the forward-flow form
(kept for completeness; it needs forward correction fields, which
forward-splatting would have to produce, so it is exercised only on
synthetic inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DirectionError, ShapeError
from .field import BorderPolicy, Direction, FlowField, _bilinear, compose_displaced, make_grid

_SUMMARY_MARGIN = 2  # boundary pixels excluded from summaries to avoid clamp bias


@dataclass(frozen=True)
class TrajectorySeries:
    """Residuals r(t) and cumulative positions R(t), t = 1..N.

    Both are (N, H, W, 2) arrays. r(1) is identically zero and
    R(t) = sum of r(1..t) with exact ascending addition order.
    """

    residuals: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=np.float64)
        p = np.asarray(self.positions, dtype=np.float64)
        if r.ndim != 4 or r.shape[3] != 2 or r.shape != p.shape:
            raise ShapeError(f"series must be matching (N, H, W, 2) arrays, got {r.shape} / {p.shape}")
        if np.any(r[0] != 0.0):
            raise ContractError("first residual must be identically zero")
        acc = np.zeros_like(r[0])
        for t in range(r.shape[0]):
            acc = acc + r[t]
            if not np.array_equal(p[t], acc):
                raise ContractError(f"positions[{t}] is not the exact prefix sum of residuals")
        object.__setattr__(self, "residuals", r)
        object.__setattr__(self, "positions", p)

    @property
    def n_frames(self) -> int:
        return self.residuals.shape[0]

    def mean_displacements(self, margin: int = _SUMMARY_MARGIN) -> np.ndarray:
        """Per-frame mean of R(t) over the interior, shape (N, 2).

        The margin drops border pixels biased by clamped resampling; it is
        ignored when the field is too small to have an interior.
        """
        if margin > 0 and min(self.positions.shape[1], self.positions.shape[2]) > 2 * margin:
            inner = self.positions[:, margin:-margin, margin:-margin, :]
        else:
            inner = self.positions
        return inner.mean(axis=(1, 2))


def _require(flow: FlowField, direction: Direction, name: str) -> FlowField:
    if flow.direction is not direction:
        raise DirectionError(f"{name} must be {direction.value}, got {flow.direction.value}")
    return flow


def backward_residuals(f_seq, f_fwd_seq, with_slopes: bool = False):
    """Backward residual of each consecutive pair, one pair at a time.

    Yields, for t = 1..N-1, r(t+1) = f_fwd(p + F_t(p)) + F_t(p) - F_{t+1}(p)
    as a (u, v) pair of (H, W) arrays. Both inter-frame flow channels are
    sampled once, through one shared bilinear stencil. With with_slopes,
    each item is (residual, slopes), where slopes holds
    ((du/dx, du/dy), (dv/dx, dv/dy)): the derivatives of the sampled
    inter-frame flow with respect to the sample position, zero where the
    CLAMP border pinned the position.
    """
    grid = None
    for f_t, f_t1, f_fwd in zip(f_seq, f_seq[1:], f_fwd_seq):
        _require(f_t, Direction.BACKWARD, "F_t")
        _require(f_t1, Direction.BACKWARD, "F_t1")
        _require(f_fwd, Direction.FORWARD, "f_fwd")
        if not (f_t.shape == f_t1.shape == f_fwd.shape):
            raise ShapeError("all fields must share dimensions")
        if grid is None or (grid.height, grid.width) != f_t.shape:
            grid = make_grid(*f_t.shape)
        sampled = _bilinear((f_fwd.u, f_fwd.v), grid.x + f_t.u, grid.y + f_t.v,
                            BorderPolicy.CLAMP, with_slopes)
        if with_slopes:
            (moved_u, du_dx, du_dy), (moved_v, dv_dx, dv_dy) = sampled
        else:
            moved_u, moved_v = sampled
        residual = (moved_u + f_t.u - f_t1.u, moved_v + f_t.v - f_t1.v)
        yield (residual, ((du_dx, du_dy), (dv_dx, dv_dy))) if with_slopes else residual


def residual_backward(f_t: FlowField, f_t1: FlowField, f_fwd: FlowField) -> np.ndarray:
    """Residual between consecutive frames under backward correction flows.

    r(t+1) = f_fwd(p + F_t(p)) + F_t(p) - F_{t+1}(p): the inter-frame
    motion evaluated where frame t's corrected pixel actually samples,
    plus the change in correction. Zero when corrections are mutually
    consistent with the motion.
    """
    (residual,) = backward_residuals([f_t, f_t1], [f_fwd])
    return np.stack(residual, axis=-1)


def residual_forward(f_t: FlowField, f_t1: FlowField, f_bwd: FlowField) -> np.ndarray:
    """Forward-flow residual variant.

    r(t+1) = f_bwd(p) + F_t(p + f_bwd(p)) - F_{t+1}(p), with f_bwd the
    inter-frame flow from t+1 back to t (Forward-tagged, source t+1). The
    first term is uncomposed by definition of this variant.
    """
    _require(f_t, Direction.FORWARD, "F_t")
    _require(f_t1, Direction.FORWARD, "F_t1")
    _require(f_bwd, Direction.FORWARD, "f_bwd")
    if not (f_t.shape == f_t1.shape == f_bwd.shape):
        raise ShapeError("all fields must share dimensions")
    moved = compose_displaced(f_t, f_bwd, BorderPolicy.CLAMP)
    return np.stack([f_bwd.u + moved.u - f_t1.u, f_bwd.v + moved.v - f_t1.v], axis=-1)


def accumulate(residuals) -> TrajectorySeries:
    """Prefix-sum residuals into positions; the leading residual must be zero."""
    r = np.stack([np.asarray(x, dtype=np.float64) for x in residuals], axis=0)
    if r.ndim != 4 or r.shape[3] != 2:
        raise ShapeError(f"residuals must be (H, W, 2) fields, got stacked shape {r.shape}")
    if np.any(r[0] != 0.0):
        raise ContractError("first residual must be identically zero")
    positions = np.empty_like(r)
    positions[0] = r[0]
    for t in range(1, r.shape[0]):
        positions[t] = positions[t - 1] + r[t]
    return TrajectorySeries(residuals=r, positions=positions)


def trajectory_of_sequence(f_seq, f_fwd_seq) -> TrajectorySeries:
    """Trajectory of a corrected sequence from its flows.

    f_seq: N backward correction fields; f_fwd_seq: N-1 forward
    inter-frame flows (t -> t+1). Residuals use the backward formulation;
    a single-frame sequence yields the trivial zero series.
    """
    f_seq = list(f_seq)
    f_fwd_seq = list(f_fwd_seq)
    if len(f_seq) < 1:
        raise ShapeError("need at least one correction field")
    if len(f_fwd_seq) != len(f_seq) - 1:
        raise ShapeError(
            f"{len(f_seq)} correction fields need {len(f_seq) - 1} inter-frame flows, "
            f"got {len(f_fwd_seq)}"
        )
    h, w = f_seq[0].shape
    residuals = [np.zeros((h, w, 2))]
    residuals += [np.stack(r, axis=-1) for r in backward_residuals(f_seq, f_fwd_seq)]
    return accumulate(residuals)


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


def trajectory_csv(series: TrajectorySeries) -> str:
    """CSV summary: per frame the mean residual and the similarity fit of R(t)."""
    rows = ["t,mean_rx,mean_ry,tx,ty,theta"]
    m = _SUMMARY_MARGIN
    for t in range(series.n_frames):
        r = series.residuals[t]
        inner = r[m:-m, m:-m, :] if min(r.shape[0], r.shape[1]) > 2 * m else r
        tx, ty, theta, _ = fit_similarity(series.positions[t])
        rows.append(
            f"{t + 1},{float(inner[..., 0].mean())!r},{float(inner[..., 1].mean())!r},"
            f"{tx!r},{ty!r},{theta!r}"
        )
    return "\n".join(rows) + "\n"
