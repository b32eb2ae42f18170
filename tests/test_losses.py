"""Tests for the loss family and its analytic gradients."""

import numpy as np
import pytest

from rectiflow import (BorderPolicy, Direction, FlowField, Frame, Mask, ShapeError, make_grid,
                       sample_bilinear_with_grad)
from rectiflow.losses import (
    SOBEL_X,
    SOBEL_Y,
    LossWeights,
    WeightMap,
    grad_video,
    loss_flow,
    loss_image,
    loss_mask,
    loss_photo,
    loss_temporal,
    loss_video,
    sobel,
    sobel_adjoint,
)
from rectiflow.trajectory import accumulate, trajectory_of_sequence


def _flow(u, v, direction=Direction.BACKWARD):
    return FlowField(u=np.asarray(u, dtype=float), v=np.asarray(v, dtype=float),
                     direction=direction)


def sobel_reference(x, kernel):
    """Brute-force correlation with edge-replicating padding."""
    h, w = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            s = 0.0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    s += kernel[di + 1, dj + 1] * x[ii, jj]
            out[i, j] = s
    return out


# --- loss_flow / loss_photo ---------------------------------------------------


def test_loss_flow_values():
    f = _flow([[1.0]], [[2.0]])
    g = _flow([[0.0]], [[1.0]])
    assert loss_flow(f, f) == 0.0
    assert loss_flow(f, g) == pytest.approx(2.0, abs=1e-15)
    assert loss_flow(f, g, WeightMap(values=np.zeros((1, 1)))) == 0.0
    with pytest.raises(ShapeError):
        loss_flow(f, _flow(np.zeros((2, 2)), np.zeros((2, 2))))


def test_loss_flow_weight_scaling():
    rng = np.random.default_rng(3)
    f = _flow(rng.random((5, 5)), rng.random((5, 5)))
    g = _flow(rng.random((5, 5)), rng.random((5, 5)))
    w = WeightMap(values=rng.random((5, 5)))
    assert loss_flow(f, g, WeightMap(values=3.0 * w.values)) == pytest.approx(
        3.0 * loss_flow(f, g, w), rel=1e-12)


def test_loss_photo_values():
    a = Frame(values=np.array([[0.75]]))
    b = Frame(values=np.array([[0.25]]))
    assert loss_photo(a, a) == 0.0
    assert loss_photo(a, b) == pytest.approx(0.25, abs=1e-15)
    color_a = Frame(values=np.full((2, 2, 3), 0.5))
    color_b = Frame(values=np.full((2, 2, 3), 0.4))
    assert loss_photo(color_a, color_b) == pytest.approx(3 * 0.1 ** 2, rel=1e-9)
    with pytest.raises(ShapeError):
        loss_photo(a, color_a)


# --- sobel and adjoint --------------------------------------------------------


def test_sobel_constant_annihilation():
    gx, gy = sobel(np.full((6, 6), 3.7))
    assert np.max(np.abs(gx)) == 0.0 and np.max(np.abs(gy)) == 0.0


def test_sobel_step_edge():
    x = np.zeros((5, 5))
    x[:, 2:] = 1.0
    gx, gy = sobel(x)
    assert np.allclose(gx[:, 1], 4.0) and np.allclose(gx[:, 2], 4.0)
    assert np.allclose(gx[:, 0], 0.0) and np.allclose(gx[:, 4], 0.0)
    assert np.max(np.abs(gy)) == 0.0


def test_sobel_ramp_interior_and_border():
    g = make_grid(6, 6)
    gx, gy = sobel(np.array(g.x))
    assert np.allclose(gx[:, 1:-1], 8.0)
    # Edge replication halves the border response.
    assert np.allclose(gx[:, 0], 4.0) and np.allclose(gx[:, -1], 4.0)
    assert np.max(np.abs(gy)) < 1e-12


def test_sobel_matches_bruteforce():
    rng = np.random.default_rng(8)
    x = rng.random((7, 6))
    gx, gy = sobel(x)
    assert np.allclose(gx, sobel_reference(x, SOBEL_X), atol=1e-12)
    assert np.allclose(gy, sobel_reference(x, SOBEL_Y), atol=1e-12)


def test_sobel_adjoint_identity():
    rng = np.random.default_rng(13)
    for kernel in (SOBEL_X, SOBEL_Y):
        x = rng.random((8, 9))
        z = rng.random((8, 9))
        gx = sobel_reference(x, kernel)
        lhs = float(np.sum(gx * z))
        rhs = float(np.sum(x * sobel_adjoint(z, kernel)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


# --- loss_mask ------------------------------------------------------------


def test_loss_mask_zero_and_constant_invariance():
    rng = np.random.default_rng(5)
    f = _flow(rng.random((8, 8)), rng.random((8, 8)))
    m = Mask(values=(rng.random((8, 8)) > 0.4).astype(np.uint8))
    assert loss_mask(f, f, m) == 0.0
    # A constant offset between the two flows is annihilated exactly.
    offset = _flow(f.u + 2.5, f.v - 1.0)
    assert loss_mask(offset, f, m) == 0.0
    # Adding the same constant to both arguments leaves the value unchanged.
    base = _flow(rng.random((8, 8)), rng.random((8, 8)))
    shifted = (_flow(f.u + 0.7, f.v + 0.7), _flow(base.u + 0.7, base.v + 0.7))
    assert loss_mask(*shifted, m) == pytest.approx(loss_mask(f, base, m), rel=1e-12)


def test_loss_mask_masked_step_vs_bruteforce():
    f = _flow(np.zeros((8, 8)), np.zeros((8, 8)))
    step = np.zeros((8, 8))
    step[:, 4:] = 1.0
    g = _flow(step, np.zeros((8, 8)))
    mv = np.zeros((8, 8), dtype=np.uint8)
    mv[2:6, 2:6] = 1
    m = Mask(values=mv)
    got = loss_mask(f, g, m)
    acc = np.abs(sobel_reference(-step, SOBEL_X)) + np.abs(sobel_reference(-step, SOBEL_Y))
    want = float(np.sum(mv * acc) / (np.sum(mv) + 1e-8))
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


# --- loss_image ----------------------------------------------------------


def test_loss_image_composition():
    f = _flow([[1.0]], [[2.0]])
    g = _flow([[0.0]], [[1.0]])
    a = Frame(values=np.array([[0.75]]))
    b = Frame(values=np.array([[0.25]]))
    m = Mask(values=np.array([[1]]))
    zero = loss_image(f, f, a, a, m)
    assert zero.total == 0.0
    proj = loss_image(f, g, a, b, m, lw=LossWeights(lambda1=0, lambda2=0, lambda3=1))
    assert proj.total == pytest.approx(loss_flow(f, g), abs=1e-15)
    both = loss_image(f, g, a, b, m, lw=LossWeights(lambda1=1, lambda2=1, lambda3=1))
    # On a 1x1 raster the Sobel term vanishes (kernels sum to zero).
    assert both.terms["mask"] == 0.0
    assert both.total == pytest.approx(2.0 + 0.25, abs=1e-12)
    assert both.total == pytest.approx(
        sum(both.weights[k] * both.terms[k] for k in both.terms), abs=1e-15)


# --- loss_temporal --------------------------------------------------------


def _series_from_positions_1d(vals):
    """Series whose x-positions follow `vals` uniformly; y stays zero."""
    residuals = [np.zeros((3, 3, 2))]
    for prev, cur in zip(vals[:-1], vals[1:]):
        r = np.zeros((3, 3, 2))
        r[..., 0] = cur - prev
        residuals.append(r)
    assert vals[0] == 0.0
    return accumulate(residuals)


def test_loss_temporal_values():
    assert loss_temporal(_series_from_positions_1d([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    assert loss_temporal(_series_from_positions_1d([0.0, 0.0, 0.0, 0.0])) == 0.0
    # Linear-in-t trajectories are exactly smooth.
    assert loss_temporal(_series_from_positions_1d([0.0, 0.7, 1.4, 2.1])) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ShapeError):
        loss_temporal(_series_from_positions_1d([0.0, 1.0]))


def test_loss_temporal_affine_invariance():
    rng = np.random.default_rng(19)
    residuals = [np.zeros((4, 4, 2))] + [rng.standard_normal((4, 4, 2)) for _ in range(5)]
    base = loss_temporal(accumulate(residuals))
    shift = np.full((4, 4, 2), 0.37)  # adds (t-1)*shift to positions: affine in t
    shifted = [residuals[0]] + [r + shift for r in residuals[1:]]
    assert loss_temporal(accumulate(shifted)) == pytest.approx(base, rel=1e-12)


# --- loss_video / grad_video -----------------------------------------------


def _quantized_instance(seed, n=3, h=8, w=8):
    """Random video-loss instance built so no |.| kink or bilinear cell
    boundary lies within finite-difference reach (h = 1e-4).

    All fields are multiples of 1e-3; correction flows carry an extra
    5e-4 offset that Sobel cancels (kernels sum to zero) but which keeps
    sample coordinates 5e-4 away from integer lattice lines.
    """
    rng = np.random.default_rng(seed)

    def q(lo, hi, step=1e-3):
        return np.round(rng.uniform(lo, hi, (h, w)) / step) * step

    f_seq = [FlowField(u=q(-0.8, 0.8) + 5e-4, v=q(-0.8, 0.8) + 5e-4,
                       direction=Direction.BACKWARD) for _ in range(n)]
    pseudo = [FlowField(u=q(-0.8, 0.8), v=q(-0.8, 0.8),
                        direction=Direction.BACKWARD) for _ in range(n)]
    masks = [Mask(values=(rng.random((h, w)) > 0.35).astype(np.uint8)) for _ in range(n)]
    fwd = [FlowField(u=q(-1.5, 1.5), v=q(-1.5, 1.5),
                     direction=Direction.FORWARD) for _ in range(n - 1)]
    return f_seq, pseudo, masks, fwd


def _fd_gradient(f_seq, pseudo, masks, fwd, lw, h_step=1e-4):
    n = len(f_seq)
    hh, ww = f_seq[0].shape
    grad = np.zeros((n, hh, ww, 2))

    def loss_at(flows):
        return loss_video(flows, pseudo, masks, fwd, lw).total

    for t in range(n):
        for ch in range(2):
            for i in range(hh):
                for j in range(ww):
                    def perturbed(delta):
                        flows = list(f_seq)
                        u = np.array(flows[t].u)
                        v = np.array(flows[t].v)
                        if ch == 0:
                            u[i, j] += delta
                        else:
                            v[i, j] += delta
                        flows[t] = FlowField(u=u, v=v, direction=Direction.BACKWARD)
                        return loss_at(flows)

                    grad[t, i, j, ch] = (perturbed(h_step) - perturbed(-h_step)) / (2 * h_step)
    return grad


def test_loss_video_trivia_and_projection():
    f_seq, pseudo, masks, fwd = _quantized_instance(seed=0)
    lw0 = LossWeights(lambda_temporal=0.0)
    rep = loss_video(pseudo, pseudo, masks, fwd, lw0)
    assert rep.total == 0.0
    rep2 = loss_video(f_seq, pseudo, masks, fwd, lw0)
    spatial = np.mean([loss_flow(f, p) + loss_mask(f, p, m)
                       for f, p, m in zip(f_seq, pseudo, masks)])
    assert rep2.total == pytest.approx(spatial, rel=1e-12)
    with pytest.raises(ShapeError):
        loss_video(f_seq, pseudo[:-1], masks, fwd)


def test_loss_video_matches_bruteforce_composition():
    f_seq, pseudo, masks, fwd = _quantized_instance(seed=2, h=4, w=4)
    lw = LossWeights(lambda_temporal=7.0, mu_mask=0.5)
    rep = loss_video(f_seq, pseudo, masks, fwd, lw)

    spatial = 0.0
    for f, p, m in zip(f_seq, pseudo, masks):
        du = f.u - p.u
        dv = f.v - p.v
        spatial += float(np.sum(du * du + dv * dv)) / 16.0
        acc = (np.abs(sobel_reference(du, SOBEL_X)) + np.abs(sobel_reference(du, SOBEL_Y))
               + np.abs(sobel_reference(dv, SOBEL_X)) + np.abs(sobel_reference(dv, SOBEL_Y)))
        spatial += 0.5 * float(np.sum(m.as_float() * acc) / (np.sum(m.values) + 1e-8))
    spatial /= 3.0

    from rectiflow.trajectory import trajectory_of_sequence
    positions = trajectory_of_sequence(f_seq, fwd).positions
    d2 = positions[2] - 2 * positions[1] + positions[0]
    temporal = float(np.mean(np.hypot(d2[..., 0], d2[..., 1])))
    assert rep.total == pytest.approx(spatial + 7.0 * temporal, rel=1e-12)


def test_grad_video_zero_at_spatial_minimum():
    _, pseudo, masks, fwd = _quantized_instance(seed=4)
    grad = grad_video(pseudo, pseudo, masks, fwd, LossWeights(lambda_temporal=0.0))
    assert np.max(np.abs(grad)) == 0.0


def test_grad_video_matches_finite_differences():
    lw = LossWeights(lambda_temporal=10.0, mu_mask=1.0)
    for seed in (11, 12, 13):
        f_seq, pseudo, masks, fwd = _quantized_instance(seed=seed)
        positions = __import__("rectiflow.trajectory", fromlist=["trajectory_of_sequence"]) \
            .trajectory_of_sequence(f_seq, fwd).positions
        d2 = positions[2:] - 2 * positions[1:-1] + positions[:-2]
        assert np.min(np.hypot(d2[..., 0], d2[..., 1])) > 0.05  # kink guard
        analytic = grad_video(f_seq, pseudo, masks, fwd, lw)
        fd = _fd_gradient(f_seq, pseudo, masks, fwd, lw)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


def test_grad_video_temporal_zero_on_linear_trajectory():
    # Constant corrections and constant motion give a linear trajectory;
    # the temporal gradient must vanish identically there.
    h = w = 6
    f = FlowField(u=np.full((h, w), 0.2), v=np.full((h, w), -0.1), direction=Direction.BACKWARD)
    fwd = FlowField(u=np.full((h, w), 0.5), v=np.full((h, w), 0.25), direction=Direction.FORWARD)
    masks = [Mask(values=np.ones((h, w), dtype=np.uint8))] * 4
    lw = LossWeights(lambda_temporal=10.0, mu_mask=0.0)
    grad = grad_video([f] * 4, [f] * 4, masks, [fwd] * 3, lw)
    assert np.max(np.abs(grad)) < 1e-12


# --- bit-exact oracle for the frame-at-a-time objective ---------------------


def _reference_loss_video(f_seq, pseudo_seq, masks, f_fwd_seq, lw):
    """The whole-sequence formulation: build the trajectory, then reduce."""
    spatial = 0.0
    for f, p, m in zip(f_seq, pseudo_seq, masks):
        spatial += loss_flow(f, p) + lw.mu_mask * loss_mask(f, p, m)
    spatial /= len(f_seq)
    terms = {"spatial": spatial,
             "temporal": loss_temporal(trajectory_of_sequence(f_seq, f_fwd_seq))}
    weights = {"spatial": 1.0, "temporal": lw.lambda_temporal}
    return terms, sum(weights[k] * terms[k] for k in sorted(terms))


def _reference_grad_video(f_seq, pseudo_seq, masks, f_fwd_seq, lw):
    """Whole-array gradient: spatial per frame, then the temporal part
    through the stacked trajectory, np.cumsum suffix sums, and per-channel
    bilinear derivative sampling for every pair."""
    n = len(f_seq)
    h, w = f_seq[0].shape
    hw = h * w
    grad = np.zeros((n, h, w, 2))
    for t, (f, p, m) in enumerate(zip(f_seq, pseudo_seq, masks)):
        grad[t, ..., 0] += (2.0 / (n * hw)) * (f.u - p.u)
        grad[t, ..., 1] += (2.0 / (n * hw)) * (f.v - p.v)
        if lw.mu_mask > 0.0:
            mv = m.as_float()
            scale = lw.mu_mask / (n * (np.sum(mv) + 1e-8))
            for ch_idx, (ch, ch_gt) in enumerate(((f.u, p.u), (f.v, p.v))):
                gx, gy = sobel(ch - ch_gt)
                back = sobel_adjoint(mv * np.sign(gx), SOBEL_X)
                back += sobel_adjoint(mv * np.sign(gy), SOBEL_Y)
                grad[t, ..., ch_idx] += scale * back
    if lw.lambda_temporal <= 0.0 or n < 3:
        return grad

    positions = trajectory_of_sequence(f_seq, f_fwd_seq).positions
    d2 = positions[2:] - 2.0 * positions[1:-1] + positions[:-2]
    norms = np.sqrt(np.sum(d2 * d2, axis=-1, keepdims=True))
    solid = norms > 1e-12
    unit = np.where(solid, d2 / np.where(solid, norms, 1.0), 0.0)
    c = lw.lambda_temporal / ((n - 2) * hw)
    g_pos = np.zeros((n, h, w, 2))
    g_pos[2:] += c * unit
    g_pos[1:-1] -= 2.0 * c * unit
    g_pos[:-2] += c * unit
    g_res = np.cumsum(g_pos[::-1], axis=0)[::-1]

    grid = make_grid(h, w)
    for t in range(1, n):
        g = g_res[t]
        grad[t, ..., 0] -= g[..., 0]
        grad[t, ..., 1] -= g[..., 1]
        grad[t - 1, ..., 0] += g[..., 0]
        grad[t - 1, ..., 1] += g[..., 1]
        fw = f_fwd_seq[t - 1]
        xs = grid.x + f_seq[t - 1].u
        ys = grid.y + f_seq[t - 1].v
        _, du_dx, du_dy = sample_bilinear_with_grad(fw.u, xs, ys, BorderPolicy.CLAMP)
        _, dv_dx, dv_dy = sample_bilinear_with_grad(fw.v, xs, ys, BorderPolicy.CLAMP)
        grad[t - 1, ..., 0] += g[..., 0] * du_dx + g[..., 1] * dv_dx
        grad[t - 1, ..., 1] += g[..., 0] * du_dy + g[..., 1] * dv_dy
    return grad


def _clamping_instance(seed, n=6, h=9, w=7):
    """Corrections and motion of several pixels, so many samples leave the
    grid and are clamped; masks cover part of each frame."""
    rng = np.random.default_rng(seed)
    f_seq = [_flow(rng.normal(0.0, 3.0, (h, w)), rng.normal(0.0, 3.0, (h, w)))
             for _ in range(n)]
    pseudo = [_flow(rng.normal(0.0, 3.0, (h, w)), rng.normal(0.0, 3.0, (h, w)))
              for _ in range(n)]
    masks = [Mask(values=(rng.random((h, w)) > 0.6).astype(np.uint8)) for _ in range(n)]
    fwd = [_flow(rng.normal(0.0, 4.0, (h, w)), rng.normal(0.0, 4.0, (h, w)), Direction.FORWARD)
           for _ in range(n - 1)]
    return f_seq, pseudo, masks, fwd


def _affine_instance(n=5, h=6, w=8):
    """Constant corrections under constant motion: the trajectory is affine
    in t, so every second difference is zero up to prefix-sum roundoff
    (0.1 and 0.3 are inexact in binary). One corner pixel of the
    corrections is bumped, so solid second differences occur too."""
    bump = np.zeros((h, w))
    bump[0, 0] = 0.25
    f_seq = [_flow(np.full((h, w), 0.2) + (t % 2) * bump, np.full((h, w), -0.1))
             for t in range(n)]
    pseudo = [_flow(np.full((h, w), 0.2), np.full((h, w), -0.1)) for _ in range(n)]
    masks = [Mask(values=np.ones((h, w), dtype=np.uint8))] * n
    fwd = [_flow(np.full((h, w), 0.1), np.full((h, w), 0.3), Direction.FORWARD)] * (n - 1)
    return f_seq, pseudo, masks, fwd


_ORACLE_CASES = (
    [("quantized", seed, _quantized_instance(seed, n=4 + seed % 3)) for seed in (21, 22, 23)]
    + [("clamping", seed, _clamping_instance(seed)) for seed in (31, 32, 33)]
    + [("affine", 0, _affine_instance())]
)


@pytest.mark.parametrize("lw", [LossWeights(lambda_temporal=10.0, mu_mask=1.0),
                                LossWeights(lambda_temporal=3.5, mu_mask=0.0),
                                LossWeights(lambda_temporal=0.0, mu_mask=0.1)],
                         ids=["default", "mu_mask_0", "lambda_0"])
@pytest.mark.parametrize("case", _ORACLE_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_video_objective_is_bit_exact_against_whole_array_reference(case, lw):
    args = case[2]
    terms, total = _reference_loss_video(*args, lw)
    rep = loss_video(*args, lw)
    assert rep.total == total
    for name, value in terms.items():
        assert rep.terms[name] == value
    want = _reference_grad_video(*args, lw)
    got = grad_video(*args, lw)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_oracle_cases_reach_the_branches_they_claim():
    f_seq, _, masks, _ = _clamping_instance(31)
    xs = make_grid(*f_seq[0].shape).x + f_seq[0].u
    assert np.any(xs < 0.0) and np.any(xs > f_seq[0].shape[1] - 1.0)
    assert 0 < np.sum(masks[0].values) < masks[0].values.size

    f_seq, _, _, fwd = _affine_instance()
    positions = trajectory_of_sequence(f_seq, fwd).positions
    d2 = positions[2:] - 2.0 * positions[1:-1] + positions[:-2]
    norms = np.hypot(d2[..., 0], d2[..., 1])
    assert np.any(norms > 1e-12)
    assert np.any((norms > 0.0) & (norms <= 1e-12))
