"""Tests for variational inter-frame flow and .flo serialization."""

from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from rectiflow import DataError, Direction, FlowField, FormatError, ShapeError
from rectiflow.config import load_config
from rectiflow.field import Frame, make_grid, sample_bilinear
from rectiflow.interflow import (
    HSParams,
    _gaussian,
    _pyramid,
    _upsample_flow,
    _zoom,
    _level_energy,
    _neighbor_count,
    _solve_level,
    estimate_flow,
    estimate_flow_with_energy,
    read_flo,
    reverse_pair,
    write_flo,
)
from rectiflow.synth import CameraSpec, JitterProfile, JitterSpec, apply_jitter, default_scene, render_scene


def _smooth_frame(size=128, seed=31):
    cam = CameraSpec(width=size, height=size, focal_px=4.0 * size)
    spec = default_scene(cam, n_lines=0, n_faces=0, seed=seed)
    frame, _ = render_scene(spec, cam, distorted=False)
    return frame


def _translated_pair(size=128, shift=2.0):
    # Sinusoidal period 4 puts the second frame at exactly (shift, 0).
    frame = _smooth_frame(size)
    spec = JitterSpec(amplitude=shift, profile=JitterProfile.SINUSOIDAL,
                      period_frames=4, rotation=False)
    frames, flows = apply_jitter([frame, frame], spec)
    return frames[0], frames[1], flows[0]


def test_identical_frames_give_near_zero_flow():
    frame = _smooth_frame(64)
    flow = estimate_flow(frame, frame, HSParams())
    assert flow.direction is Direction.FORWARD
    assert np.mean(np.hypot(flow.u, flow.v)) < 1e-3


def test_translation_recovered():
    a, b, true_flow = _translated_pair()
    assert np.allclose(true_flow.u, 2.0) and np.allclose(true_flow.v, 0.0)
    flow = estimate_flow(a, b, HSParams())
    c = slice(16, -16)
    assert abs(np.mean(flow.u[c, c]) - 2.0) < 0.2
    assert abs(np.mean(flow.v[c, c])) < 0.2


def test_reverse_pair_negates_translation():
    a, b, _ = _translated_pair()
    back = reverse_pair(a, b, HSParams())
    c = slice(16, -16)
    assert abs(np.mean(back.u[c, c]) + 2.0) < 0.3
    assert abs(np.mean(back.v[c, c])) < 0.3


def test_forward_backward_consistency():
    a, b, _ = _translated_pair()
    fab = estimate_flow(a, b, HSParams())
    fba = reverse_pair(a, b, HSParams())
    g = np.mgrid[0:128, 0:128].astype(np.float64)
    from rectiflow import sample_bilinear
    bu = sample_bilinear(fba.u, g[1] + fab.u, g[0] + fab.v)
    bv = sample_bilinear(fba.v, g[1] + fab.u, g[0] + fab.v)
    c = slice(16, -16)
    resid = np.hypot((fab.u + bu)[c, c], (fab.v + bv)[c, c])
    assert np.mean(resid) < 0.5


def test_energy_non_increasing_at_finest_level():
    a, b, _ = _translated_pair(size=64)
    _, energies = estimate_flow_with_energy(a, b, HSParams(iterations=40))
    assert energies.size == 41
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-9 * (1.0 + np.abs(energies[:-1])))


def _reference_neighbor_sum(a):
    s = np.zeros_like(a)
    s[1:, :] += a[:-1, :]
    s[:-1, :] += a[1:, :]
    s[:, 1:] += a[:, :-1]
    s[:, :-1] += a[:, 1:]
    return s


def _reference_solve_level(a, b, u, v, params, track_energy):
    """The full-array red-black solver that sub-lattice sweeps replaced.

    Every half-sweep computes the update at every pixel and keeps its
    color's half with np.where.
    """
    h, w = a.shape
    grid = make_grid(h, w)
    bw = sample_bilinear(b, grid.x + u, grid.y + v)
    avg = 0.5 * (a + bw)
    fy_d, fx_d = np.gradient(avg)
    ft = bw - a
    c = ft - fx_d * u - fy_d * v

    alpha2 = params.alpha ** 2
    n_p = _neighbor_count((h, w))
    denom = alpha2 * n_p + fx_d * fx_d + fy_d * fy_d
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    colors = ((ii + jj) % 2).astype(bool)
    energies = []
    if track_energy:
        energies.append(_level_energy(u, v, fx_d, fy_d, c, alpha2))
    for _ in range(params.iterations):
        for color in (False, True):
            sel = colors == color
            su = _reference_neighbor_sum(u)
            sv = _reference_neighbor_sum(v)
            ubar = su / n_p
            vbar = sv / n_p
            t = (fx_d * ubar + fy_d * vbar + c) / denom
            u = np.where(sel, ubar - fx_d * t, u)
            v = np.where(sel, vbar - fy_d * t, v)
        if track_energy:
            energies.append(_level_energy(u, v, fx_d, fy_d, c, alpha2))
    return u, v, np.array(energies)


def _level_case(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 255.0, shape)
    b = np.clip(a + rng.normal(0.0, 20.0, shape), 0.0, 255.0)
    u = rng.normal(0.0, 1.5, shape)
    v = rng.normal(0.0, 1.5, shape)
    return a, b, u, v


_ORACLE_SHAPES = [(2, 2), (2, 7), (3, 5), (4, 4), (7, 8), (16, 9), (33, 34)]


def _assert_same_level(got, want):
    for g, r in zip(got, want):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("track_energy", [False, True], ids=["no_energy", "energy"])
@pytest.mark.parametrize("iterations", [1, 3, 10])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES, ids=[f"{h}x{w}" for h, w in _ORACLE_SHAPES])
def test_solve_level_is_bit_exact_against_full_array_reference(shape, iterations, track_energy):
    a, b, u, v = _level_case(shape, seed=shape[0] * 100 + shape[1])
    params = HSParams(iterations=iterations)
    got = _solve_level(a, b, u, v, params, track_energy)
    want = _reference_solve_level(a, b, u, v, params, track_energy)
    _assert_same_level(got, want)
    assert got[2].size == (iterations + 1 if track_energy else 0)


def test_solve_level_bit_exact_on_flat_frames_with_negative_zero_flow():
    # Flat frames have zero gradients, so the update copies the neighbor
    # mean, and an all -0.0 incoming flow tests the sign of zero sums. The
    # zero border reaches the middle of 12x13 only after several sweeps.
    a = np.full((12, 13), 80.0)
    u = np.full((12, 13), -0.0)
    for iterations, track_energy in ((1, False), (2, True)):
        params = HSParams(iterations=iterations)
        got = _solve_level(a, a, u, u, params, track_energy)
        _assert_same_level(got, _reference_solve_level(a, a, u, u, params, track_energy))


def test_estimate_flow_equals_flow_of_estimate_with_energy():
    rng = np.random.default_rng(5)
    a = Frame(values=rng.uniform(0.0, 1.0, (21, 26, 3)))
    b = Frame(values=np.clip(a.values + rng.normal(0.0, 0.05, a.values.shape), 0.0, 1.0))
    params = HSParams(iterations=7, pyramid_levels=2)
    flow = estimate_flow(a, b, params)
    tracked, energies = estimate_flow_with_energy(a, b, params)
    assert flow.u.tobytes() == tracked.u.tobytes()
    assert flow.v.tobytes() == tracked.v.tobytes()
    assert energies.size == 8


def _ndimage_downsample(img, factor):
    """The scipy.ndimage pyramid step that `_gaussian` and `_zoom` replaced."""
    h = max(4, int(round(img.shape[0] * factor)))
    w = max(4, int(round(img.shape[1] * factor)))
    smoothed = ndimage.gaussian_filter(img, sigma=1.0, mode="nearest")
    return ndimage.zoom(smoothed, (h / img.shape[0], w / img.shape[1]), order=1, mode="nearest")


def _ndimage_upsample_flow(u, v, shape):
    fy = shape[0] / u.shape[0]
    fx = shape[1] / u.shape[1]
    return (ndimage.zoom(u, (fy, fx), order=1, mode="nearest") * fx,
            ndimage.zoom(v, (fy, fx), order=1, mode="nearest") * fy)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _pipeline_pyramids():
    """{(frame shape, levels, downscale): HSParams} of every pipeline config.

    sample_config.ini and the benchmark workloads are read as shipped; the
    benchmark smoke test shrinks its workloads to 32x32, 24x24 and 48x48
    with two levels, and the CLI tests run 48x48 with two levels. The last
    three are sizes this module's own tests estimate flow on.
    """
    root = Path(__file__).resolve().parent.parent
    cases = []
    for path in [root / "sample_config.ini", *sorted((root / "bench" / "workloads").glob("*.ini"))]:
        cfg = load_config(path, seed=3)
        cases.append(((cfg.camera.height, cfg.camera.width), cfg.flow))
    two = HSParams(iterations=5, pyramid_levels=2)
    cases += [((n, n), two) for n in (32, 24, 48)]
    cases += [((128, 128), HSParams()), ((64, 64), HSParams()), ((21, 26), two)]
    return {(shape, p.pyramid_levels, p.downscale): p for shape, p in cases}


_PYRAMIDS = _pipeline_pyramids()


def _level_pairs():
    """Consecutive (finer, coarser) level shapes of every pipeline pyramid."""
    pairs = set()
    for (shape, _, _), params in _PYRAMIDS.items():
        levels = _pyramid(np.zeros(shape), params)[::-1]
        pairs.update((a.shape, b.shape) for a, b in zip(levels, levels[1:]))
    return sorted(pairs)


def _zoom_cases():
    """(input shape, output shape) pairs: every pipeline level step down and
    up, then a sweep of odd, non-square and 4-pixel shapes halved, doubled
    and stretched, plus a few large frames."""
    cases = set()
    for fine, coarse in _level_pairs():
        cases.update([(fine, coarse), (coarse, fine)])
    sizes = [(h, w) for h in range(4, 41) for w in range(4, 41, 3)]
    sizes += [(128, 256), (256, 128), (299, 150), (150, 299)]
    for h, w in sizes:
        half = (max(4, int(round(h * 0.5))), max(4, int(round(w * 0.5))))
        cases.update([((h, w), half), ((h, w), (2 * h, 2 * w)), ((h, w), (h + 3, 2 * w - 1))])
    return sorted(cases)


def test_pipeline_pyramids_cover_every_workload_level():
    pairs = _level_pairs()
    for step in [((128, 128), (64, 64)), ((64, 64), (32, 32)), ((48, 48), (24, 24)),
                 ((256, 256), (128, 128)), ((32, 32), (16, 16)), ((24, 24), (12, 12)),
                 ((21, 26), (10, 13))]:
        assert step in pairs


_GAUSS_SHAPES = [(4, 4), (5, 4), (7, 13), (12, 12), (16, 16), (21, 26), (24, 24),
                 (32, 32), (48, 48), (64, 64), (128, 128), (256, 256), (300, 7), (7, 300)]


@pytest.mark.parametrize("shape", _GAUSS_SHAPES, ids=[f"{h}x{w}" for h, w in _GAUSS_SHAPES])
def test_gaussian_is_bit_exact_against_ndimage(shape):
    img = np.random.default_rng(shape[0] * 1000 + shape[1]).uniform(0.0, 255.0, shape)
    want = ndimage.gaussian_filter(img, 1.0, mode="nearest")
    assert _same_bits(_gaussian(img), want)


def test_zoom_is_bit_exact_against_ndimage_on_shape_sweep():
    rng = np.random.default_rng(41)
    mismatched = []
    for shape_in, shape_out in _zoom_cases():
        a = rng.normal(0.0, 50.0, shape_in)
        zoom = (shape_out[0] / shape_in[0], shape_out[1] / shape_in[1])
        if not _same_bits(_zoom(a, shape_out), ndimage.zoom(a, zoom, order=1, mode="nearest")):
            mismatched.append((shape_in, shape_out))
    assert mismatched == []


def test_zoom_of_negative_zero_is_positive_zero():
    a = np.full((6, 9), -0.0)
    want = ndimage.zoom(a, (2.0, 2.0), order=1, mode="nearest")
    assert _same_bits(_zoom(a, (12, 18)), want)
    assert not np.signbit(want).any()


@pytest.mark.parametrize("key", sorted(_PYRAMIDS),
                         ids=[f"{h}x{w}-L{n}-{d}" for (h, w), n, d in sorted(_PYRAMIDS)])
def test_pyramid_and_flow_upsampling_match_ndimage_reference(key):
    shape, params = key[0], _PYRAMIDS[key]
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    img = rng.uniform(0.0, 255.0, shape)
    levels = _pyramid(img, params)[::-1]
    want = img
    for level in levels[1:]:
        want = _ndimage_downsample(want, params.downscale)
        assert _same_bits(level, want)
    for coarse, fine in zip(levels[:0:-1], levels[-2::-1]):
        u, v = rng.normal(0.0, 2.0, (2,) + coarse.shape)
        got = _upsample_flow(u, v, fine.shape)
        ref = _ndimage_upsample_flow(u, v, fine.shape)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


def test_estimate_rejects_dimension_mismatch():
    a = _smooth_frame(32)
    b = _smooth_frame(64)
    with pytest.raises(ShapeError):
        estimate_flow(a, b, HSParams())


def test_flo_round_trip_float32_lossless():
    rng = np.random.default_rng(17)
    flow = FlowField(u=rng.uniform(-30, 30, (9, 13)), v=rng.uniform(-30, 30, (9, 13)),
                     direction=Direction.FORWARD)
    back = read_flo(write_flo(flow), Direction.FORWARD)
    assert np.max(np.abs(back.u - flow.u)) < 1e-4  # float32 quantization
    assert np.max(np.abs(back.v - flow.v)) < 1e-4
    # Exact against the float32 representation.
    assert np.array_equal(back.u, flow.u.astype(np.float32).astype(np.float64))
    # Round trip of already-quantized data is bit-exact.
    assert write_flo(back) == write_flo(back)
    again = read_flo(write_flo(back), Direction.FORWARD)
    assert np.array_equal(again.u, back.u) and np.array_equal(again.v, back.v)


def test_flo_single_pixel_is_20_bytes_and_pieh_magic():
    flow = FlowField(u=np.array([[1.5]]), v=np.array([[-2.25]]), direction=Direction.BACKWARD)
    data = write_flo(flow)
    assert len(data) == 20
    assert data[:4] == b"PIEH"
    back = read_flo(data, Direction.BACKWARD)
    assert back.u[0, 0] == 1.5 and back.v[0, 0] == -2.25


def test_flo_error_contracts():
    flow = FlowField.zeros(2, 3, Direction.FORWARD)
    good = write_flo(flow)
    import struct
    bad_magic = struct.pack("<fii", 202021.0, 3, 2) + good[12:]
    with pytest.raises(FormatError):
        read_flo(bad_magic, Direction.FORWARD)
    with pytest.raises(ShapeError):
        read_flo(good[:-4], Direction.FORWARD)
    nan_payload = good[:12] + np.full(12, np.nan, dtype="<f4").tobytes()
    with pytest.raises(DataError):
        read_flo(nan_payload, Direction.FORWARD)
    with pytest.raises(FormatError):
        read_flo(struct.pack("<fii", 202021.25, -1, 2) + b"", Direction.FORWARD)
