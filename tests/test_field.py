"""Tests for raster/flow primitives and bilinear resampling."""

import numpy as np
import pytest

from rectiflow import (
    DataError,
    Direction,
    DirectionError,
    FlowField,
    Frame,
    Mask,
    ShapeError,
    compose_displaced,
    make_grid,
    pull_points_through_flow,
    sample_bilinear,
    sample_bilinear_with_grad,
    warp_backward,
)
from rectiflow.field import _bilinear


def bilinear_reference(field, x, y):
    """Scalar brute-force interpolation used as an independent oracle."""
    h, w = field.shape

    def at(r, c):
        return field[min(max(r, 0), h - 1), min(max(c, 0), w - 1)]

    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    c0, r0 = int(np.floor(x)), int(np.floor(y))
    a, b = x - c0, y - r0
    return (
        (1 - a) * (1 - b) * at(r0, c0)
        + a * (1 - b) * at(r0, c0 + 1)
        + (1 - a) * b * at(r0 + 1, c0)
        + a * b * at(r0 + 1, c0 + 1)
    )


def test_make_grid_coordinates():
    g = make_grid(3, 4)
    assert g.x[1, 2] == 2.0 and g.y[1, 2] == 1.0
    assert g.x.shape == (3, 4) and g.y.shape == (3, 4)
    with pytest.raises(ShapeError):
        make_grid(0, 4)


def test_bilinear_reproduces_affine_fields():
    # A bilinear interpolant restores any affine function exactly.
    g = make_grid(4, 4)
    field = g.x + 10.0 * g.y
    assert sample_bilinear(field, 0.5, 0.25) == pytest.approx(3.0, abs=1e-12)
    assert sample_bilinear(field, 2.75, 1.5) == pytest.approx(17.75, abs=1e-12)


def test_bilinear_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    field = rng.random((7, 9))
    xs = rng.uniform(-2.0, 10.0, size=25)
    ys = rng.uniform(-2.0, 8.0, size=25)
    got = sample_bilinear(field, xs, ys)
    want = [bilinear_reference(field, x, y) for x, y in zip(xs, ys)]
    assert np.allclose(got, want, atol=1e-12)


def test_bilinear_clamps_outside_queries_to_the_border():
    field = np.arange(16.0).reshape(4, 4)
    assert sample_bilinear(field, -1.0, 0.0) == 0.0
    assert sample_bilinear(field, 5.0, 5.0) == 15.0
    # Only the pinned coordinate moves; the other still interpolates.
    assert sample_bilinear(field, -0.5, 1.5) == 6.0


def test_bilinear_is_linear_in_the_field():
    rng = np.random.default_rng(3)
    f1 = rng.random((5, 6))
    f2 = rng.random((5, 6))
    xs = rng.uniform(0, 5, size=40)
    ys = rng.uniform(0, 4, size=40)
    lhs = sample_bilinear(2.5 * f1 - 0.75 * f2, xs, ys)
    rhs = 2.5 * sample_bilinear(f1, xs, ys) - 0.75 * sample_bilinear(f2, xs, ys)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_bilinear_rejects_bad_inputs():
    field = np.zeros((3, 3))
    for sample in (sample_bilinear, sample_bilinear_with_grad):
        with pytest.raises(DataError):
            sample(field, np.nan, 0.0)
        with pytest.raises(ShapeError):
            sample(field, np.zeros(2), np.zeros(1))
        with pytest.raises(ShapeError):
            sample(np.zeros((3, 3, 3)), 0.0, 0.0)
        with pytest.raises(DataError):
            sample(np.full((3, 3), np.inf), 0.0, 0.0)


def _clamped_bilinear_point(fields, x, y, with_grad):
    """One point of the clamped bilinear formula in float64 scalar steps:
    clamp, floor, corner indices x1 = min(x0 + 1, w - 1), weights, then the
    value ((w00 f00 + w10 f10) + w01 f01) + w11 f11 and slopes zeroed where
    the coordinate is pinned."""
    h, w = fields[0].shape
    xq = np.clip(np.float64(x), 0.0, w - 1.0)
    yq = np.clip(np.float64(y), 0.0, h - 1.0)
    x0, y0 = np.floor(xq), np.floor(yq)
    ax, ay = xq - x0, yq - y0
    bx, by = 1.0 - ax, 1.0 - ay
    c0, r0 = int(x0), int(y0)
    c1, r1 = min(c0 + 1, w - 1), min(r0 + 1, h - 1)
    out = []
    for f in fields:
        f00, f10, f01, f11 = f[r0, c0], f[r0, c1], f[r1, c0], f[r1, c1]
        val = bx * by * f00 + ax * by * f10 + bx * ay * f01 + ax * ay * f11
        if with_grad:
            ddx = by * (f10 - f00) + ay * (f11 - f01) if 0.0 < x < w - 1.0 else np.float64(0.0)
            ddy = bx * (f01 - f00) + ax * (f11 - f10) if 0.0 < y < h - 1.0 else np.float64(0.0)
            val = (val, ddx, ddy)
        out.append(val)
    return out


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 7), (9, 3)])
def test_bilinear_kernel_is_bit_exact_against_scalar_clamped_formula(shape):
    """The padded one-index stencil reads what clamped corner indices read,
    bit for bit and with signed zeros, for one and for two fields."""
    h, w = shape
    rng = np.random.default_rng(h * 100 + w)
    fields = [rng.normal(size=shape), rng.normal(size=shape)]
    fields[1][rng.random(shape) < 0.3] = -0.0
    edges_x = [-0.0, 0.0, w - 1.0, -1.0, -3.5, w - 0.5, w + 2.0, 0.5, w - 1.5, 1e9, -1e9]
    edges_y = [-0.0, 0.0, h - 1.0, -1.0, -3.5, h - 0.5, h + 2.0, 0.5, h - 1.5, 1e9, -1e9]
    grid_x, grid_y = np.meshgrid(np.array(edges_x + list(range(w)), dtype=float),
                                 np.array(edges_y + list(range(h)), dtype=float))
    xs = np.concatenate([grid_x.ravel(), rng.uniform(-2.0, w + 1.0, 60)])
    ys = np.concatenate([grid_y.ravel(), rng.uniform(-2.0, h + 1.0, 60)])
    for count in (1, 2):
        for with_grad in (False, True):
            got = _bilinear(fields[:count], xs, ys, with_grad)
            want = [_clamped_bilinear_point(fields[:count], x, y, with_grad)
                    for x, y in zip(xs, ys)]
            for k in range(count):
                parts = zip(*(got[k] if with_grad else (got[k],)))
                for i, point in enumerate(parts):
                    expect = want[i][k] if with_grad else (want[i][k],)
                    for a, b in zip(point, expect):
                        assert a == b and np.signbit(a) == np.signbit(b), (xs[i], ys[i])


def test_warp_color_is_byte_equal_to_per_channel_sampling():
    rng = np.random.default_rng(17)
    img = Frame(values=rng.random((9, 11, 3)))
    flow = FlowField(u=rng.normal(0.0, 3.0, (9, 11)), v=rng.normal(0.0, 3.0, (9, 11)),
                     direction=Direction.BACKWARD)
    g = make_grid(9, 11)
    want = np.stack([sample_bilinear(img.values[..., c], g.x + flow.u, g.y + flow.v)
                     for c in range(3)], axis=-1)
    got = warp_backward(img, flow).values
    assert got.tobytes() == np.clip(want, 0.0, 1.0).tobytes()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    field = rng.random((8, 8))
    # Keep probes away from integer lattice lines where the interpolant kinks.
    xs = rng.uniform(0.3, 6.7, size=30)
    xs += np.where(np.abs(xs - np.round(xs)) < 0.05, 0.1, 0.0)
    ys = rng.uniform(0.3, 6.7, size=30)
    ys += np.where(np.abs(ys - np.round(ys)) < 0.05, 0.1, 0.0)
    val, ddx, ddy = sample_bilinear_with_grad(field, xs, ys)
    assert np.allclose(val, sample_bilinear(field, xs, ys), atol=1e-14)
    h = 1e-6
    fdx = (sample_bilinear(field, xs + h, ys)
           - sample_bilinear(field, xs - h, ys)) / (2 * h)
    fdy = (sample_bilinear(field, xs, ys + h)
           - sample_bilinear(field, xs, ys - h)) / (2 * h)
    assert np.allclose(ddx, fdx, atol=1e-6)
    assert np.allclose(ddy, fdy, atol=1e-6)


def test_gradient_vanishes_where_clamped():
    rng = np.random.default_rng(5)
    field = rng.random((6, 6))
    _, ddx, ddy = sample_bilinear_with_grad(field, np.array([-2.0, 7.3]), np.array([2.5, -1.0]))
    assert np.all(ddx == 0.0)
    # y = 2.5 is interior for the first probe, so only the second row pins.
    assert ddy[1] == 0.0


def test_warp_identity_is_bit_exact():
    rng = np.random.default_rng(2)
    img = Frame(values=rng.random((6, 7)))
    flow = FlowField.zeros(6, 7, Direction.BACKWARD)
    out = warp_backward(img, flow)
    assert np.array_equal(out.values, img.values)


def test_warp_shifts_ramp_by_constant_flow():
    g = make_grid(5, 6)
    img = Frame(values=g.x / 10.0)
    flow = FlowField(u=np.ones((5, 6)), v=np.zeros((5, 6)), direction=Direction.BACKWARD)
    out = warp_backward(img, flow)
    assert np.allclose(out.values[:, :-1], (g.x[:, :-1] + 1.0) / 10.0, atol=1e-12)
    assert np.allclose(out.values[:, -1], 0.5, atol=1e-12)  # clamped at x = w-1


def test_warp_requires_backward_direction():
    img = Frame(values=np.zeros((4, 4)))
    fwd = FlowField.zeros(4, 4, Direction.FORWARD)
    with pytest.raises(DirectionError):
        warp_backward(img, fwd)


def test_warp_color_channels_sampled_identically():
    rng = np.random.default_rng(9)
    mono = rng.random((5, 5))
    color = Frame(values=np.stack([mono, mono, mono], axis=-1))
    flow = FlowField(u=rng.uniform(-1, 1, (5, 5)), v=rng.uniform(-1, 1, (5, 5)),
                     direction=Direction.BACKWARD)
    out = warp_backward(color, flow)
    assert np.allclose(out.values[..., 0], out.values[..., 1], atol=1e-15)
    assert np.allclose(out.values[..., 0], out.values[..., 2], atol=1e-15)


def test_compose_displaced_shifts_linear_field():
    g = make_grid(5, 8)
    base = FlowField(u=0.1 * g.x, v=np.zeros((5, 8)), direction=Direction.BACKWARD)
    disp = FlowField(u=np.full((5, 8), 0.5), v=np.zeros((5, 8)), direction=Direction.BACKWARD)
    out = compose_displaced(base, disp)
    assert out.direction is Direction.BACKWARD
    assert np.allclose(out.u[:, :-1], 0.1 * (g.x[:, :-1] + 0.5), atol=1e-12)
    assert np.allclose(out.u[:, -1], 0.7, atol=1e-12)


def test_compose_accepts_raw_displacement_array():
    rng = np.random.default_rng(4)
    base = FlowField(u=rng.random((4, 4)), v=rng.random((4, 4)), direction=Direction.FORWARD)
    disp = np.zeros((4, 4, 2))
    out = compose_displaced(base, disp)
    assert np.allclose(out.u, base.u) and np.allclose(out.v, base.v)
    assert out.direction is Direction.FORWARD


def test_pull_points_solves_fixed_point():
    g = make_grid(20, 20)
    back = FlowField(u=0.1 * (g.x - 9.5), v=-0.08 * (g.y - 9.5), direction=Direction.BACKWARD)
    q = np.array([[4.0, 6.0], [12.25, 3.5], [9.5, 9.5]])
    p = pull_points_through_flow(back, q)
    fx = sample_bilinear(back.u, p[:, 0], p[:, 1])
    fy = sample_bilinear(back.v, p[:, 0], p[:, 1])
    assert np.allclose(p[:, 0] + fx, q[:, 0], atol=1e-9)
    assert np.allclose(p[:, 1] + fy, q[:, 1], atol=1e-9)


def test_flow_field_validation_and_immutability():
    with pytest.raises(ShapeError):
        FlowField(u=np.zeros((3, 3)), v=np.zeros((3, 4)), direction=Direction.BACKWARD)
    with pytest.raises(DataError):
        FlowField(u=np.full((2, 2), np.nan), v=np.zeros((2, 2)), direction=Direction.BACKWARD)
    f = FlowField.zeros(2, 2, Direction.BACKWARD)
    with pytest.raises(ValueError):
        f.u[0, 0] = 1.0
    assert f.uv.shape == (2, 2, 2)


def test_frame_clips_and_mask_validates():
    fr = Frame(values=np.array([[-0.5, 0.25], [2.0, 1.0]]))
    assert np.array_equal(fr.values, np.array([[0.0, 0.25], [1.0, 1.0]]))
    assert fr.channels == 1
    with pytest.raises(DataError):
        Mask(values=np.array([[0, 2]]))
    m = Mask(values=np.array([[0, 1], [1, 0]]))
    assert m.as_float().dtype == np.float64


def test_frame_gray_weights():
    color = Frame(values=np.full((2, 2, 3), 0.5))
    assert np.allclose(color.gray(), 0.5, atol=1e-12)
    red = np.zeros((1, 1, 3))
    red[..., 0] = 1.0
    assert Frame(values=red).gray()[0, 0] == pytest.approx(0.299)
