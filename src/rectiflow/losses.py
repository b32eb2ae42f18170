"""The correction loss family and its analytic gradients.

Image-stage terms: endpoint error on flows, photometric error on frames,
and a masked edge term built on Sobel responses (which annihilates
constant flow offsets by construction). Video-stage terms: the per-frame
spatial loss against pseudo-labels plus a temporal smoothness penalty on
the correction trajectory's second differences.

grad_video differentiates the full video objective with respect to every
flow coordinate, including the chain through the bilinear sampling of the
inter-frame flow at correction-displaced coordinates. It is validated
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .field import FlowField, Frame, Mask
from .trajectory import TrajectorySeries, backward_residuals

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T
_MASK_EPS = 1e-8


@dataclass(frozen=True)
class WeightMap:
    """Per-pixel non-negative loss weights; default is all-ones."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeError(f"weight map must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise DataError("weights must be finite and non-negative")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def ones(cls, height: int, width: int) -> "WeightMap":
        return cls(values=np.ones((height, width)))


@dataclass(frozen=True)
class LossWeights:
    """Term weights: lambda1..3 mix the image-stage loss, lambda_temporal
    and mu_mask the video-stage loss."""

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda_temporal: float = 10.0
    mu_mask: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda_temporal", "mu_mask"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise DataError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossReport:
    """Named term values plus their weighted total."""

    terms: dict
    weights: dict
    total: float

    def __post_init__(self):
        if set(self.terms) != set(self.weights):
            raise ShapeError("terms and weights must name the same keys")
        check = sum(self.weights[k] * self.terms[k] for k in sorted(self.terms))
        if abs(check - self.total) > 1e-12 * max(1.0, abs(check)):
            raise DataError(f"total {self.total} does not equal weighted sum {check}")

    def to_text(self) -> str:
        rows = [f"{k} {self.terms[k]!r} weight {self.weights[k]!r}" for k in sorted(self.terms)]
        rows.append(f"total {self.total!r}")
        return "\n".join(rows) + "\n"


def _report(terms: dict, weights: dict) -> LossReport:
    total = sum(weights[k] * terms[k] for k in sorted(terms))
    return LossReport(terms=terms, weights=weights, total=total)


def _weight_values(w, shape) -> np.ndarray:
    if w is None:
        return np.ones(shape)
    v = w.values if isinstance(w, WeightMap) else np.asarray(w, dtype=np.float64)
    if v.shape != shape:
        raise ShapeError(f"weight map shape {v.shape} does not match field {shape}")
    return v


def loss_flow(f: FlowField, f_gt: FlowField, w: WeightMap | None = None) -> float:
    """Weighted mean squared endpoint error, normalized by pixel count."""
    if f.shape != f_gt.shape:
        raise ShapeError(f"flow shapes differ: {f.shape} vs {f_gt.shape}")
    wv = _weight_values(w, f.shape)
    du = f.u - f_gt.u
    dv = f.v - f_gt.v
    return float(np.sum(wv * (du * du + dv * dv)) / (f.shape[0] * f.shape[1]))


def loss_photo(i_hat: Frame, i_gt: Frame, w: WeightMap | None = None) -> float:
    """Weighted mean squared intensity error, summed over channels."""
    if (i_hat.height, i_hat.width, i_hat.channels) != (i_gt.height, i_gt.width, i_gt.channels):
        raise ShapeError("frame dimensions or channel counts differ")
    wv = _weight_values(w, (i_hat.height, i_hat.width))
    diff = i_hat.channel_stack() - i_gt.channel_stack()
    return float(np.sum(wv * np.sum(diff * diff, axis=2)) / (i_hat.height * i_hat.width))


def sobel(channel) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel responses with edge-replicating padding.

    Evaluated separably as smoothed central differences, so a constant
    input yields exact zeros (x - x cancels before any summation), not
    just zeros up to accumulation roundoff.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"sobel expects a 2-D raster, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("sobel input must be finite")
    p = np.pad(x, 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    gx = dx[:-2, :] + 2.0 * dx[1:-1, :] + dx[2:, :]
    dy = p[2:, :] - p[:-2, :]
    gy = dy[:, :-2] + 2.0 * dy[:, 1:-1] + dy[:, 2:]
    return gx, gy


def sobel_adjoint(z, kernel) -> np.ndarray:
    """Adjoint of `correlate(x, kernel, mode="reflect")` as a linear map.

    Scatters each output's kernel taps back to the padded source cells,
    then folds the border cells onto the edge pixels they replicated.
    """
    z = np.asarray(z, dtype=np.float64)
    h, w = z.shape
    pad = np.zeros((h + 2, w + 2))
    for di in range(3):
        for dj in range(3):
            pad[di : di + h, dj : dj + w] += kernel[di, dj] * z
    out = pad[1 : h + 1, 1 : w + 1].copy()
    out[0, :] += pad[0, 1 : w + 1]
    out[-1, :] += pad[h + 1, 1 : w + 1]
    out[:, 0] += pad[1 : h + 1, 0]
    out[:, -1] += pad[1 : h + 1, w + 1]
    out[0, 0] += pad[0, 0]
    out[0, -1] += pad[0, w + 1]
    out[-1, 0] += pad[h + 1, 0]
    out[-1, -1] += pad[h + 1, w + 1]
    return out


def loss_mask(f: FlowField, f_gt: FlowField, m: Mask) -> float:
    """Masked mean absolute difference of Sobel edge responses.

    Insensitive to constant offsets between the flows (the kernels
    annihilate constants); the mask mass normalization keeps the scale
    independent of face size.
    """
    if f.shape != f_gt.shape:
        raise ShapeError(f"flow shapes differ: {f.shape} vs {f_gt.shape}")
    if m.values.shape != f.shape:
        raise ShapeError(f"mask shape {m.values.shape} does not match flow {f.shape}")
    mv = m.as_float()
    acc = np.zeros(f.shape)
    for ch, ch_gt in ((f.u, f_gt.u), (f.v, f_gt.v)):
        gx, gy = sobel(ch - ch_gt)
        acc += np.abs(gx) + np.abs(gy)
    return float(np.sum(mv * acc) / (np.sum(mv) + _MASK_EPS))


def loss_image(f: FlowField, f_gt: FlowField, i_hat: Frame, i_gt: Frame, m: Mask,
               w: WeightMap | None = None, lw: LossWeights = LossWeights()) -> LossReport:
    """Image-stage composite: lambda1*mask + lambda2*photo + lambda3*flow."""
    terms = {
        "mask": loss_mask(f, f_gt, m),
        "photo": loss_photo(i_hat, i_gt, w),
        "flow": loss_flow(f, f_gt, w),
    }
    weights = {"mask": lw.lambda1, "photo": lw.lambda2, "flow": lw.lambda3}
    return _report(terms, weights)


def loss_temporal(series: TrajectorySeries) -> float:
    """Mean per-pixel magnitude of the trajectory's second differences.

    Zero exactly when positions are affine in t (constant-velocity
    trajectories), which is the smoothness target.
    """
    positions = series.positions
    n = positions.shape[0]
    if n < 3:
        raise ShapeError(f"temporal loss needs >= 3 frames, got {n}")
    d2 = positions[2:] - 2.0 * positions[1:-1] + positions[:-2]
    norms = np.sqrt(np.sum(d2 * d2, axis=-1))
    return float(np.mean(norms))


def _check_video_args(f_seq, pseudo_seq, masks, f_fwd_seq):
    f_seq = list(f_seq)
    pseudo_seq = list(pseudo_seq)
    masks = list(masks)
    f_fwd_seq = list(f_fwd_seq)
    n = len(f_seq)
    if len(pseudo_seq) != n or len(masks) != n:
        raise ShapeError(
            f"need equal counts of flows, pseudo-labels, masks; got {n}, "
            f"{len(pseudo_seq)}, {len(masks)}"
        )
    if len(f_fwd_seq) != n - 1:
        raise ShapeError(f"{n} frames need {n - 1} inter-frame flows, got {len(f_fwd_seq)}")
    return f_seq, pseudo_seq, masks, f_fwd_seq


def _trajectory_pass(f_seq, f_fwd_seq, with_grad: bool):
    """Walk the backward-residual trajectory once, a frame at a time.

    Each pair's residual advances the running position R(t) by the same
    explicit prefix sum as `accumulate`, and each new position closes one
    second difference d2 = R(t+1) - 2 R(t) + R(t-1). Returns the norms of
    all N-2 second differences as an (N-2, H, W) array or, with_grad, the
    (u, v) unit vectors of the second differences and every pair's
    sampling slopes (see `backward_residuals`), both in frame order.
    """
    n = len(f_seq)
    if n < 3:
        raise ShapeError(f"temporal loss needs >= 3 frames, got {n}")
    h, w = f_seq[0].shape
    norms = None if with_grad else np.empty((n - 2, h, w))
    units, slopes = [], []
    zero = np.zeros((h, w))
    before, last = None, (zero, zero)
    for t, item in enumerate(backward_residuals(f_seq, f_fwd_seq, with_grad)):
        if with_grad:
            item, pair_slopes = item
            slopes.append(pair_slopes)
        pos = (last[0] + item[0], last[1] + item[1])
        if before is not None:
            d2u = pos[0] - 2.0 * last[0] + before[0]
            d2v = pos[1] - 2.0 * last[1] + before[1]
            norm = np.sqrt(d2u * d2u + d2v * d2v)
            if with_grad:
                # Below-roundoff second differences are exactly smooth;
                # normalizing them would turn prefix-sum float noise into
                # unit-magnitude gradients.
                solid = norm > 1e-12
                denom = np.where(solid, norm, 1.0)
                units.append((np.where(solid, d2u / denom, 0.0),
                              np.where(solid, d2v / denom, 0.0)))
            else:
                norms[t - 1] = norm
        before, last = last, pos
    return (units, slopes) if with_grad else norms


def loss_video(f_seq, pseudo_seq, masks, f_fwd_seq, lw: LossWeights = LossWeights()) -> LossReport:
    """Video-stage objective: mean per-frame spatial loss + weighted temporal loss.

    spatial_t = loss_flow(F_t, P_t) + mu_mask*loss_mask(F_t, P_t, m_t);
    temporal = loss_temporal of the backward-residual trajectory of f_seq
    under the fixed inter-frame flows.
    """
    f_seq, pseudo_seq, masks, f_fwd_seq = _check_video_args(f_seq, pseudo_seq, masks, f_fwd_seq)
    spatial = 0.0
    for f, p, m in zip(f_seq, pseudo_seq, masks):
        spatial += loss_flow(f, p) + lw.mu_mask * loss_mask(f, p, m)
    spatial /= len(f_seq)
    temporal = float(np.mean(_trajectory_pass(f_seq, f_fwd_seq, with_grad=False)))
    terms = {"spatial": spatial, "temporal": temporal}
    weights = {"spatial": 1.0, "temporal": lw.lambda_temporal}
    return _report(terms, weights)


def grad_video(f_seq, pseudo_seq, masks, f_fwd_seq, lw: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic gradient of loss_video w.r.t. every flow coordinate.

    Returns (N, H, W, 2) with d(total)/d(u_t, v_t) per frame. The spatial
    part is per frame. The temporal part takes one forward pass over the
    frames, sampling each inter-frame flow once for both channels and its
    slopes, then one backward pass that forms the suffix sums of
    d(temporal)/dR(t) and chains them through the residuals and the
    bilinear sampling at the correction-displaced coordinates (clamped
    samples contribute zero positional derivative, matching the forward
    computation exactly).
    """
    f_seq, pseudo_seq, masks, f_fwd_seq = _check_video_args(f_seq, pseudo_seq, masks, f_fwd_seq)
    n = len(f_seq)
    h, w = f_seq[0].shape
    hw = h * w
    grad = np.zeros((n, h, w, 2))

    # Spatial: quadratic endpoint term plus the masked Sobel term's adjoint.
    for t, (f, p, m) in enumerate(zip(f_seq, pseudo_seq, masks)):
        grad[t, ..., 0] += (2.0 / (n * hw)) * (f.u - p.u)
        grad[t, ..., 1] += (2.0 / (n * hw)) * (f.v - p.v)
        if lw.mu_mask > 0.0:
            mv = m.as_float()
            scale = lw.mu_mask / (n * (np.sum(mv) + _MASK_EPS))
            for ch_idx, (ch, ch_gt) in enumerate(((f.u, p.u), (f.v, p.v))):
                gx, gy = sobel(ch - ch_gt)
                back = sobel_adjoint(mv * np.sign(gx), SOBEL_X)
                back += sobel_adjoint(mv * np.sign(gy), SOBEL_Y)
                grad[t, ..., ch_idx] += scale * back

    if lw.lambda_temporal <= 0.0 or n < 3:
        return grad

    units, slopes = _trajectory_pass(f_seq, f_fwd_seq, with_grad=True)
    c = lw.lambda_temporal / ((n - 2) * hw)
    # Backward over frames. g_pos(t) = d(temporal)/dR(t) spreads the unit
    # second differences onto their three positions; R(s) sums r(1..s), so
    # d/dr(t) is the suffix sum g_res(t) = g_res(t+1) + g_pos(t). Since
    # r(t+1) = f_fwd(p + F_t(p)) + F_t(p) - F_{t+1}(p), frame t receives
    # -g_res(t), then g_res(t+1) and its chain through pair t's slopes, in
    # that order, so every sum rounds as in the whole-array formulation.
    g_next = None
    for t in range(n - 1, -1, -1):
        g_res = None
        if t >= 1:
            g_res = []
            for ch in (0, 1):
                g_pos = np.zeros((h, w))
                if t >= 2:
                    g_pos += c * units[t - 2][ch]
                if t <= n - 2:
                    g_pos -= 2.0 * c * units[t - 1][ch]
                if t <= n - 3:
                    g_pos += c * units[t][ch]
                g_res.append(g_pos if g_next is None else g_next[ch] + g_pos)
            grad[t, ..., 0] -= g_res[0]
            grad[t, ..., 1] -= g_res[1]
        if g_next is not None:
            (du_dx, du_dy), (dv_dx, dv_dy) = slopes[t]
            grad[t, ..., 0] += g_next[0]
            grad[t, ..., 1] += g_next[1]
            grad[t, ..., 0] += g_next[0] * du_dx + g_next[1] * dv_dx
            grad[t, ..., 1] += g_next[0] * du_dy + g_next[1] * dv_dy
        g_next = g_res
    return grad
