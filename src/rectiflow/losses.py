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

_MASK_EPS = 1e-8


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


def _report(terms: dict, weights: dict) -> LossReport:
    total = sum(weights[k] * terms[k] for k in sorted(terms))
    return LossReport(terms=terms, weights=weights, total=total)


def loss_flow(f: FlowField, f_gt: FlowField) -> float:
    """Mean squared endpoint error, normalized by pixel count."""
    if f.shape != f_gt.shape:
        raise ShapeError(f"flow shapes differ: {f.shape} vs {f_gt.shape}")
    du = f.u - f_gt.u
    dv = f.v - f_gt.v
    return float(np.sum(du * du + dv * dv) / (f.shape[0] * f.shape[1]))


def loss_photo(i_hat: Frame, i_gt: Frame) -> float:
    """Mean squared intensity error, summed over channels."""
    if (i_hat.height, i_hat.width, i_hat.channels) != (i_gt.height, i_gt.width, i_gt.channels):
        raise ShapeError("frame dimensions or channel counts differ")
    diff = i_hat.channel_stack() - i_gt.channel_stack()
    return float(np.sum(np.sum(diff * diff, axis=2)) / (i_hat.height * i_hat.width))


def sobel(channel) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel responses with edge-replicating padding.

    Evaluated separably as smoothed central differences, so a constant
    input yields exact zeros (x - x cancels before any summation), not
    just zeros up to accumulation roundoff. The one-pixel edge pad is
    built by slicing: the raster, then its first and last rows, then the
    first and last columns of the result, which carries the corners.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"sobel expects a 2-D raster, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("sobel input must be finite")
    h, w = x.shape
    p = np.empty((h + 2, w + 2))
    p[1:-1, 1:-1] = x
    p[0, 1:-1] = x[0]
    p[-1, 1:-1] = x[-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    dx = p[:, 2:] - p[:, :-2]
    gx = 2.0 * dx[1:-1, :]
    gx += dx[:-2, :]
    gx += dx[2:, :]
    dy = p[2:, :] - p[:-2, :]
    gy = 2.0 * dy[:, 1:-1]
    gy += dy[:, :-2]
    gy += dy[:, 2:]
    return gx, gy


def sobel_adjoint(zx, zy) -> np.ndarray:
    """Transpose of `sobel`: maps a pair of (gx, gy) responses back to the raster.

    Transposes sobel's own steps in reverse order: the 1-2-1 smoothing,
    then the central difference onto the padded raster, then the edge
    padding, whose border cells fold onto the pixels they replicated (rows,
    then columns, which also carries the corners). On the mask * sign
    inputs grad_video passes, every partial sum is a small integer, so the
    result has the same bits as any other summation order.

    Each buffer's first term is assigned rather than added to zeros. That
    can only turn a +0.0 partial sum into -0.0, and the closing + 0.0 maps
    -0.0 back to +0.0, so the bits equal those of the zero-filled sums.
    """
    zx = np.asarray(zx, dtype=np.float64)
    zy = np.asarray(zy, dtype=np.float64)
    h, w = zx.shape
    twice = np.multiply(zx, 2.0)
    dx = np.empty((h + 2, w))
    dx[:-2] = zx
    dx[-2:] = 0.0
    dx[1:-1] += twice
    dx[2:] += zx
    np.multiply(zy, 2.0, out=twice)
    dy = np.empty((h, w + 2))
    dy[:, :-2] = zy
    dy[:, -2:] = 0.0
    dy[:, 1:-1] += twice
    dy[:, 2:] += zy
    p = np.empty((h + 2, w + 2))
    p[:, 2:] = dx
    p[:, :2] = 0.0
    p[:, :-2] -= dx
    p[2:, :] += dy
    p[:-2, :] -= dy
    p[1, :] += p[0, :]
    p[h, :] += p[h + 1, :]
    p[:, 1] += p[:, 0]
    p[:, w] += p[:, w + 1]
    return p[1 : h + 1, 1 : w + 1] + 0.0


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
               lw: LossWeights = LossWeights()) -> LossReport:
    """Image-stage composite: lambda1*mask + lambda2*photo + lambda3*flow."""
    terms = {
        "mask": loss_mask(f, f_gt, m),
        "photo": loss_photo(i_hat, i_gt),
        "flow": loss_flow(f, f_gt),
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
    for f, p, m in zip(f_seq, pseudo_seq, masks):
        if f.shape != p.shape:
            raise ShapeError(f"flow shapes differ: {f.shape} vs {p.shape}")
        if m.values.shape != f.shape:
            raise ShapeError(f"mask shape {m.values.shape} does not match flow {f.shape}")
    return f_seq, pseudo_seq, masks, f_fwd_seq


def _trajectory_pass(f_seq, f_fwd_seq, with_grad: bool):
    """Walk the backward-residual trajectory once, a frame at a time.

    Each pair's residual advances the running position R(t) by the same
    explicit prefix sum as `accumulate`, and each new position closes one
    second difference d2 = R(t+1) - 2 R(t) + R(t-1), formed in place.
    Returns the norms of all N-2 second differences, written straight
    into an (N-2, H, W) array or, with_grad, the (u, v) unit vectors of
    the second differences and every pair's sampling slopes (see
    `backward_residuals`), both in frame order.
    """
    n = len(f_seq)
    if n < 3:
        raise ShapeError(f"temporal loss needs >= 3 frames, got {n}")
    h, w = f_seq[0].shape
    norms = None if with_grad else np.empty((n - 2, h, w))
    units, slopes = [], []
    zero = np.zeros((h, w))
    before, last = None, (zero, zero)
    for t, pos in enumerate(backward_residuals(f_seq, f_fwd_seq, with_grad)):
        if with_grad:
            pos, pair_slopes = pos
            slopes.append(pair_slopes)
        for r, prev in zip(pos, last):
            r += prev
        if before is not None:
            d2u, d2v = (2.0 * prev for prev in last)
            for d, p, b in zip((d2u, d2v), pos, before):
                np.subtract(p, d, out=d)
                d += b
            norm = np.multiply(d2u, d2u, out=None if with_grad else norms[t - 1])
            norm += d2v * d2v
            np.sqrt(norm, out=norm)
            if with_grad:
                # Below-roundoff second differences are exactly smooth;
                # normalizing them would turn prefix-sum float noise into
                # unit-magnitude gradients.
                flat = norm <= 1e-12
                np.copyto(norm, 1.0, where=flat)
                for d in (d2u, d2v):
                    d /= norm
                    np.copyto(d, 0.0, where=flat)
                units.append((d2u, d2v))
        before, last = last, pos
    return (units, slopes) if with_grad else norms


def loss_video(f_seq, pseudo_seq, masks, f_fwd_seq, lw: LossWeights = LossWeights()) -> LossReport:
    """Video-stage objective: mean per-frame spatial loss + weighted temporal loss.

    spatial_t = loss_flow(F_t, P_t) + mu_mask*loss_mask(F_t, P_t, m_t);
    temporal = loss_temporal of the backward-residual trajectory of f_seq
    under the fixed inter-frame flows. Both spatial terms share one
    difference F_t - P_t per channel and round exactly as those functions do.
    """
    f_seq, pseudo_seq, masks, f_fwd_seq = _check_video_args(f_seq, pseudo_seq, masks, f_fwd_seq)
    spatial = 0.0
    for f, p, m in zip(f_seq, pseudo_seq, masks):
        du, dv = f.u - p.u, f.v - p.v
        edge_u, edge_v = (np.abs(gx) + np.abs(gy) for gx, gy in (sobel(du), sobel(dv)))
        mv = m.as_float()
        edge = float(np.sum(mv * (edge_u + edge_v)) / (np.sum(mv) + _MASK_EPS))
        spatial += float(np.sum(du * du + dv * dv) / du.size) + lw.mu_mask * edge
    spatial /= len(f_seq)
    temporal = float(np.mean(_trajectory_pass(f_seq, f_fwd_seq, with_grad=False)))
    terms = {"spatial": spatial, "temporal": temporal}
    weights = {"spatial": 1.0, "temporal": lw.lambda_temporal}
    return _report(terms, weights)


def grad_video(f_seq, pseudo_seq, masks, f_fwd_seq, lw: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic gradient of loss_video w.r.t. every flow coordinate.

    Returns (N, H, W, 2) with d(total)/d(u_t, v_t) per frame. The temporal
    part takes one forward pass over the frames, sampling each
    inter-frame flow once for both channels and its slopes. Then one
    backward pass over the frames sums each frame's gradient in two
    contiguous (H, W) buffers and writes them into the result once: the
    spatial part, then the suffix sums of d(temporal)/dR(t) chained
    through the residuals and the bilinear sampling at the
    correction-displaced coordinates (clamped samples contribute zero
    positional derivative, matching the forward computation exactly).
    """
    f_seq, pseudo_seq, masks, f_fwd_seq = _check_video_args(f_seq, pseudo_seq, masks, f_fwd_seq)
    n = len(f_seq)
    h, w = f_seq[0].shape
    hw = h * w
    grad = np.empty((n, h, w, 2))
    temporal = lw.lambda_temporal > 0.0 and n >= 3
    if temporal:
        units, slopes = _trajectory_pass(f_seq, f_fwd_seq, with_grad=True)
        c = lw.lambda_temporal / ((n - 2) * hw)
    # g_pos(t) = d(temporal)/dR(t) spreads the unit second differences onto
    # their three positions; R(s) sums r(1..s), so d/dr(t) is the suffix sum
    # g_res(t) = g_res(t+1) + g_pos(t). Since r(t+1) = f_fwd(p + F_t(p)) +
    # F_t(p) - F_{t+1}(p), frame t receives its spatial terms, -g_res(t),
    # then g_res(t+1) and its chain through pair t's slopes, in that order.
    g_next = None
    for t in range(n - 1, -1, -1):
        f, p = f_seq[t], pseudo_seq[t]
        mv = masks[t].as_float()
        scale = lw.mu_mask / (n * (np.sum(mv) + _MASK_EPS))
        acc = []
        for ch, ch_gt in ((f.u, p.u), (f.v, p.v)):
            # Quadratic endpoint term plus the masked Sobel term's adjoint.
            d = ch - ch_gt
            g = 0.0 + (2.0 / (n * hw)) * d  # 0.0 + x turns -0.0 into +0.0, as a sum into zeros
            if lw.mu_mask > 0.0:
                gx, gy = sobel(d)
                g += scale * sobel_adjoint(mv * np.sign(gx), mv * np.sign(gy))
            acc.append(g)
        gu, gv = acc
        g_res = None
        if temporal and t >= 1:
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
            gu -= g_res[0]
            gv -= g_res[1]
        if g_next is not None:
            (du_dx, du_dy), (dv_dx, dv_dy) = slopes[t]
            gu += g_next[0]
            gv += g_next[1]
            gu += g_next[0] * du_dx + g_next[1] * dv_dx
            gv += g_next[0] * du_dy + g_next[1] * dv_dy
        grad[t, ..., 0] = gu
        grad[t, ..., 1] = gv
        g_next = g_res
    return grad
