"""Tests for residuals, trajectory accumulation, and similarity fitting."""

import numpy as np
import pytest

from rectiflow import ContractError, Direction, DirectionError, FlowField, ShapeError, make_grid
from rectiflow.trajectory import (
    TrajectorySeries,
    accumulate,
    fit_similarity,
    frame_fits,
    residual_backward,
    trajectory_csv,
    trajectory_of_sequence,
    trajectory_steps,
)


def _const(h, w, u, v, direction):
    return FlowField(u=np.full((h, w), float(u)), v=np.full((h, w), float(v)),
                     direction=direction)


def _affine(h, w, cu, cv, direction):
    """Affine field u = cu[0]*x + cu[1]*y + cu[2], likewise v."""
    g = make_grid(h, w)
    return FlowField(u=cu[0] * g.x + cu[1] * g.y + cu[2],
                     v=cv[0] * g.x + cv[1] * g.y + cv[2], direction=direction)


def test_residual_backward_zero_for_static_consistent_input():
    f = _const(4, 4, 0.3, -0.2, Direction.BACKWARD)
    zero = _const(4, 4, 0, 0, Direction.FORWARD)
    r = residual_backward(f, f, zero)
    assert np.max(np.abs(r)) == 0.0


def test_residual_backward_consistency_construction():
    # F_t1 built so the residual is algebraically zero; affine fields keep
    # bilinear resampling exact away from clamped borders.
    h, w = 32, 32
    g = make_grid(h, w)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    f_t = FlowField(u=0.05 * (cx - g.x), v=0.04 * (cy - g.y), direction=Direction.BACKWARD)
    fwd = FlowField(u=0.02 * (cx - g.x) + 0.3, v=0.01 * (cy - g.y) - 0.2,
                    direction=Direction.FORWARD)
    xs = g.x + f_t.u
    ys = g.y + f_t.v
    f_t1 = FlowField(u=(0.02 * (cx - xs) + 0.3) + f_t.u,
                     v=(0.01 * (cy - ys) - 0.2) + f_t.v, direction=Direction.BACKWARD)
    r = residual_backward(f_t, f_t1, fwd)
    assert np.max(np.abs(r)) < 1e-9


def test_residual_backward_constant_case_and_accumulation():
    f = _const(4, 4, 0.5, -0.25, Direction.BACKWARD)
    motion = _const(4, 4, 1.25, 0.75, Direction.FORWARD)
    r = residual_backward(f, f, motion)
    assert np.allclose(r[..., 0], 1.25, atol=1e-12) and np.allclose(r[..., 1], 0.75, atol=1e-12)
    series = trajectory_of_sequence([f, f, f], [motion, motion])
    assert np.allclose(series.positions[2, ..., 0], 2.5, atol=1e-12)
    assert np.allclose(series.positions[2, ..., 1], 1.5, atol=1e-12)
    # Mean displacement grows linearly in t.
    means = series.mean_displacements()
    assert np.allclose(means[:, 0], [0.0, 1.25, 2.5], atol=1e-12)


def test_residual_backward_direction_contracts():
    back = _const(4, 4, 0, 0, Direction.BACKWARD)
    fwd = _const(4, 4, 0, 0, Direction.FORWARD)
    with pytest.raises(DirectionError):
        residual_backward(fwd, back, fwd)
    with pytest.raises(DirectionError):
        residual_backward(back, back, back)


def test_accumulate_prefix_sums_and_contract():
    c = np.full((2, 2, 2), 0.5)
    series = accumulate([np.zeros((2, 2, 2)), c, c])
    assert np.array_equal(series.positions[0], np.zeros((2, 2, 2)))
    assert np.array_equal(series.positions[1], c)
    assert np.array_equal(series.positions[2], 2 * c)
    with pytest.raises(ContractError):
        accumulate([c, c])


def test_accumulate_matches_loop_oracle_bit_exactly():
    rng = np.random.default_rng(37)
    residuals = [np.zeros((3, 5, 2))] + [rng.standard_normal((3, 5, 2)) for _ in range(9)]
    series = accumulate(residuals)
    acc = np.zeros((3, 5, 2))
    for t, r in enumerate(residuals):
        acc = acc + r
        assert np.array_equal(series.positions[t], acc)


def test_accumulate_is_linear():
    rng = np.random.default_rng(41)
    a = [np.zeros((4, 4, 2))] + [rng.standard_normal((4, 4, 2)) for _ in range(4)]
    b = [np.zeros((4, 4, 2))] + [rng.standard_normal((4, 4, 2)) for _ in range(4)]
    lhs = accumulate([x + y for x, y in zip(a, b)]).positions
    rhs = accumulate(a).positions + accumulate(b).positions
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_trajectory_of_sequence_boundaries():
    f = _const(4, 4, 0.1, 0.2, Direction.BACKWARD)
    single = trajectory_of_sequence([f], [])
    assert single.n_frames == 1
    assert np.max(np.abs(single.positions)) == 0.0
    with pytest.raises(ShapeError):
        trajectory_of_sequence([f, f], [])


def test_trajectory_recovers_translation_jitter():
    from rectiflow.synth import (CameraSpec, JitterProfile, JitterSpec, apply_jitter,
                                 default_scene, render_scene, stereographic_correction_flow)
    cam = CameraSpec(width=48, height=48, focal_px=60.0)
    frame, _ = render_scene(default_scene(cam, 2, 1, seed=2), cam, distorted=True)
    spec = JitterSpec(amplitude=1.5, profile=JitterProfile.SINUSOIDAL, period_frames=5,
                      rotation=False)
    n = 8
    _, flows = apply_jitter([frame] * n, spec)
    g_flow = stereographic_correction_flow(cam)
    series = trajectory_of_sequence([g_flow] * n, flows)
    means = series.mean_displacements()
    t = np.arange(n)
    expected = 1.5 * np.sin(2.0 * np.pi * t / 5.0)
    assert np.max(np.abs(means[:, 0] - expected)) < 1e-9
    assert np.max(np.abs(means[:, 1])) < 1e-9


def test_fit_similarity_translation_rotation_scale():
    zero = np.zeros((10, 12, 2))
    assert fit_similarity(zero) == (0.0, 0.0, 0.0, 1.0)

    trans = np.zeros((10, 12, 2))
    trans[..., 0] = 3.0
    trans[..., 1] = -2.0
    tx, ty, theta, scale = fit_similarity(trans)
    assert (tx, ty) == (3.0, -2.0) and theta == 0.0 and scale == 1.0

    g = make_grid(17, 17)
    cx = cy = 8.0
    ang = 0.01
    rx = np.cos(ang) * (g.x - cx) - np.sin(ang) * (g.y - cy) + cx
    ry = np.sin(ang) * (g.x - cx) + np.cos(ang) * (g.y - cy) + cy
    rot = np.stack([rx - g.x, ry - g.y], axis=-1)
    tx, ty, theta, scale = fit_similarity(rot)
    assert abs(theta - 0.01) < 1e-6
    assert abs(scale - 1.0) < 1e-6 and abs(tx) < 1e-9 and abs(ty) < 1e-9

    grown = np.stack([0.02 * (g.x - cx), 0.02 * (g.y - cy)], axis=-1)
    _, _, theta, scale = fit_similarity(grown)
    assert abs(scale - 1.02) < 1e-9 and abs(theta) < 1e-12


def test_trajectory_csv_shape():
    f = _const(8, 8, 0.1, 0.0, Direction.BACKWARD)
    motion = _const(8, 8, 0.5, -0.5, Direction.FORWARD)
    series = trajectory_of_sequence([f, f, f], [motion, motion])
    csv = trajectory_csv(series)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,mean_rx,mean_ry,tx,ty,theta"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.0
    assert float(lines[2].split(",")[1]) == pytest.approx(0.5, abs=1e-12)


class _Counted:
    """A sized sequence that counts how many of its items were read."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        for item in self.items:
            self.reads += 1
            yield item


def _jittered(n):
    from rectiflow.synth import (CameraSpec, JitterProfile, JitterSpec, apply_jitter,
                                 default_scene, render_scene, stereographic_correction_flow)
    cam = CameraSpec(width=32, height=32, focal_px=40.0)
    frame, _ = render_scene(default_scene(cam, 2, 1, seed=4), cam, distorted=True)
    _, flows = apply_jitter([frame] * n, JitterSpec(amplitude=1.0,
                                                    profile=JitterProfile.WHITE_NOISE, seed=9))
    return [stereographic_correction_flow(cam)] * n, flows


def test_trajectory_steps_are_the_rows_of_the_series():
    """The stream yields every (r(t), R(t)) of trajectory_of_sequence bit for
    bit, reading each field and flow once, and its fits give the same CSV
    and stability as the series."""
    from rectiflow.metrics import spectrum_csv, stability_score
    pseudo, flows = _jittered(9)
    series = trajectory_of_sequence(pseudo, flows)
    fields, fwd = _Counted(pseudo), _Counted(flows)
    steps = list(trajectory_steps(fields, fwd))
    assert (fields.reads, fwd.reads) == (9, 8)
    assert len(steps) == series.n_frames
    for (r, pos), r_ref, pos_ref in zip(steps, series.residuals, series.positions):
        assert np.array_equal(r, r_ref) and np.array_equal(pos, pos_ref)
    fits = frame_fits(steps)
    assert trajectory_csv(fits) == trajectory_csv(series)
    assert spectrum_csv(fits) == spectrum_csv(series)
    assert stability_score(fits, (2, 3)) == stability_score(series, (2, 3))


def test_trajectory_steps_check_counts_before_reading():
    pseudo, flows = _jittered(4)
    for n_flows in (2, 4):
        fields, fwd = _Counted(pseudo), _Counted((flows * 2)[:n_flows])
        with pytest.raises(ShapeError, match=f"4 correction fields need 3 inter-frame "
                                             f"flows, got {n_flows}"):
            next(trajectory_steps(fields, fwd))
        assert fields.reads == fwd.reads == 0
    with pytest.raises(ShapeError, match="at least one correction field"):
        next(trajectory_steps([], []))
