"""Tests for the synthetic world: projections, rendering, jitter, masks."""

import numpy as np
import pytest

from rectiflow import Direction, DomainError, DataError, sample_bilinear, synth, warp_backward
from rectiflow.field import make_grid
from rectiflow.synth import (
    CameraSpec,
    JitterProfile,
    JitterSpec,
    SceneSpec,
    annotations_from_text,
    annotations_to_text,
    apply_jitter,
    default_scene,
    distort_points,
    face_mask,
    jitter_signal,
    jittered_face_masks,
    render_scene,
    stereographic_correction_flow,
    undistort_points,
)


def test_flow_zero_at_principal_point_and_outward():
    cam = CameraSpec(width=65, height=65, focal_px=80.0)
    flow = stereographic_correction_flow(cam)
    assert flow.direction is Direction.BACKWARD
    assert flow.u[32, 32] == 0.0 and flow.v[32, 32] == 0.0
    # Radial magnitude non-decreasing along the central scanline, rightward half.
    mags = np.hypot(flow.u[32, 32:], flow.v[32, 32:])
    assert np.all(np.diff(mags) >= -1e-12)
    # Outward: u has the sign of (x - px).
    assert np.all(flow.u[32, 33:] > 0) and np.all(flow.u[32, :32] < 0)


def test_displacement_at_45_degree_view_angle():
    # Closed form: f = 100, ideal radius 2f*tan(22.5 deg) -> observed radius f.
    f = 100.0
    r_s = 2.0 * f * np.tan(np.radians(22.5))
    assert r_s == pytest.approx(82.84271247461903, abs=1e-9)
    cam = CameraSpec(width=401, height=401, focal_px=f)
    p = np.array([[200.0 + r_s, 200.0]])
    q = distort_points(p, cam)
    assert q[0, 0] - p[0, 0] == pytest.approx(17.157287525380988, abs=1e-9)
    assert q[0, 1] == pytest.approx(200.0, abs=1e-12)


def test_domain_error_when_view_angle_reaches_90():
    with pytest.raises(DomainError):
        stereographic_correction_flow(CameraSpec(width=64, height=64, focal_px=20.0))


def test_point_maps_are_exact_inverses():
    cam = CameraSpec(width=128, height=128, focal_px=90.0)
    rng = np.random.default_rng(6)
    pts = rng.uniform(10.0, 117.0, size=(50, 2))
    round_trip = undistort_points(distort_points(pts, cam), cam)
    assert np.max(np.abs(round_trip - pts)) < 1e-9
    # Distortion is identity at the principal point.
    pp = np.array([cam.principal_point])
    assert np.allclose(distort_points(pp, cam), pp, atol=1e-12)


def test_flow_matches_point_map_on_grid():
    cam = CameraSpec(width=48, height=40, focal_px=60.0)
    flow = stereographic_correction_flow(cam)
    ys, xs = np.mgrid[0:40, 0:48]
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    moved = distort_points(pts, cam)
    assert np.allclose(flow.u.ravel(), moved[:, 0] - pts[:, 0], atol=1e-12)
    assert np.allclose(flow.v.ravel(), moved[:, 1] - pts[:, 1], atol=1e-12)


def test_render_deterministic_and_annotated():
    cam = CameraSpec(width=96, height=96, focal_px=70.0)
    spec = default_scene(cam, n_lines=4, n_faces=2, seed=5)
    frame_a, ann_a = render_scene(spec, cam, distorted=False)
    frame_b, ann_b = render_scene(spec, cam, distorted=False)
    assert np.array_equal(frame_a.values, frame_b.values)
    assert len(ann_a.lines) == 4 and len(ann_a.faces) == 2
    for line in ann_a.lines:
        # Undistorted line samples are exactly collinear.
        p = line.points_ideal
        v0 = p[-1] - p[0]
        cross = (p[:, 0] - p[0, 0]) * v0[1] - (p[:, 1] - p[0, 1]) * v0[0]
        assert np.max(np.abs(cross)) < 1e-9
        assert np.array_equal(line.points_ideal, line.points_image)
    assert np.array_equal(ann_b.lines[0].points_ideal, ann_a.lines[0].points_ideal)


def test_distorted_render_rectifies_with_analytic_flow():
    cam = CameraSpec(width=96, height=96, focal_px=75.0)
    spec = default_scene(cam, n_lines=4, n_faces=1, seed=11)
    ideal, _ = render_scene(spec, cam, distorted=False)
    observed, ann = render_scene(spec, cam, distorted=True)
    flow = stereographic_correction_flow(cam)
    corrected = warp_backward(observed, flow)
    lo, hi = 10, 86
    err = np.abs(corrected.values[lo:hi, lo:hi] - ideal.values[lo:hi, lo:hi])
    assert np.mean(err) < 0.02
    # Distorted annotations moved outward relative to ideal space.
    line = ann.lines[0]
    assert not np.allclose(line.points_image, line.points_ideal)
    back = undistort_points(line.points_image, cam)
    assert np.max(np.abs(back - line.points_ideal)) < 1e-9


def test_render_flags_geometry_leaving_frame():
    cam = CameraSpec(width=64, height=64, focal_px=40.0)
    # A line hugging the border in ideal space distorts out of frame.
    spec = SceneSpec(line_segments=(((2.0, 2.0), (61.0, 2.0)),), seed=0)
    _, ann = render_scene(spec, cam, distorted=True)
    assert ann.lines[0].out_of_frame
    _, ann_ideal = render_scene(spec, cam, distorted=False)
    assert not ann_ideal.lines[0].out_of_frame


def _reference_render_values(spec, cam, distorted):
    """Whole-frame render: every 4x4 subsample of the frame in one flat array,
    with the background blobs drawn from the scene seed on the spot."""
    grid = make_grid(cam.height, cam.width)
    ox, oy = np.meshgrid(synth._SUBGRID, synth._SUBGRID)
    xs = (grid.x[..., None] + ox.ravel()).ravel()
    ys = (grid.y[..., None] + oy.ravel()).ravel()
    if distorted:
        ideal = undistort_points(np.stack([xs, ys], axis=1), cam)
        xs, ys = ideal[:, 0], ideal[:, 1]
    rng = np.random.default_rng(spec.seed)
    n_blobs = 8
    cxs = rng.uniform(0, cam.width - 1, n_blobs)
    cys = rng.uniform(0, cam.height - 1, n_blobs)
    sig = rng.uniform(min(cam.width, cam.height) / 12.0, min(cam.width, cam.height) / 5.0, n_blobs)
    amp = rng.uniform(-0.22, 0.28, n_blobs)
    v = np.full(xs.shape, 0.72)
    for k in range(n_blobs):
        d2 = (xs - cxs[k]) ** 2 + (ys - cys[k]) ** 2
        v = v + amp[k] * np.exp(-d2 / (2.0 * sig[k] ** 2))
    v = np.clip(v, 0.30, 0.95)
    for center, axes, phi in spec.face_ellipses:
        inside = synth._inside_ellipse(xs, ys, center, axes, phi)
        v = np.where(inside, 0.5 * v + 0.5 * synth._FACE_VALUE, v)
    for a, b in spec.line_segments:
        near = synth._segment_distance(xs, ys, a, b) <= synth._LINE_HALF_WIDTH
        v = np.where(near, synth._LINE_VALUE, v)
    return v.reshape(cam.height, cam.width, -1).mean(axis=2)


def _block_rows(cam):
    return max(1, synth._TILE_SAMPLES // (cam.width * synth._SUBGRID.size ** 2))


_WIDE_CAM = CameraSpec(width=1100, height=2, focal_px=400.0)
_WIDE_SCENE = SceneSpec(
    line_segments=(((20.0, 0.2), (1080.0, 0.9)), ((549.0, 0.0), (551.0, 1.0))),
    face_ellipses=(((700.0, 0.5), (30.0, 3.0), 0.1),),
    face_landmarks=(((700.0, 0.5), (690.0, 0.5), (710.0, 0.5)),),
    seed=17,
)


@pytest.mark.parametrize("distorted", [False, True])
@pytest.mark.parametrize("case", ["smallest", "ragged_last_block", "square", "wider_than_a_tile"])
def test_render_is_bit_exact_against_whole_frame_reference(case, distorted):
    if case == "wider_than_a_tile":
        cam, spec = _WIDE_CAM, _WIDE_SCENE
        assert _block_rows(cam) == 1 and cam.width * 16 > synth._TILE_SAMPLES
    elif case == "smallest":
        # CameraSpec's minimum is 2x2: one block holds the whole frame.
        cam = CameraSpec(width=2, height=2, focal_px=3.0)
        spec = SceneSpec(seed=4)
    elif case == "ragged_last_block":
        cam = CameraSpec(width=96, height=45, focal_px=70.0)
        spec = default_scene(cam, n_lines=4, n_faces=2, seed=8)
        assert 1 < _block_rows(cam) < cam.height and cam.height % _block_rows(cam) != 0
    else:
        cam = CameraSpec(width=128, height=128, focal_px=90.0)
        spec = default_scene(cam, n_lines=5, n_faces=2, seed=3)
    frame, _ = render_scene(spec, cam, distorted=distorted)
    expected = _reference_render_values(spec, cam, distorted)
    assert frame.values.shape == expected.shape
    assert frame.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("distorted", [False, True])
def test_render_evaluates_at_most_one_tile_of_samples_per_call(monkeypatch, distorted):
    cam = CameraSpec(width=256, height=256, focal_px=180.0)
    counts = []
    scene_value = synth._scene_value

    def recording(spec, blobs, xs, ys):
        counts.append(xs.size)
        return scene_value(spec, blobs, xs, ys)

    monkeypatch.setattr(synth, "_scene_value", recording)
    render_scene(default_scene(cam, n_lines=3, n_faces=1, seed=2), cam, distorted=distorted)
    assert sum(counts) == cam.width * cam.height * 16
    assert max(counts) <= synth._TILE_SAMPLES


def test_jitter_amplitude_zero_is_identity():
    cam = CameraSpec(width=32, height=32, focal_px=40.0)
    frame, _ = render_scene(default_scene(cam, 2, 1, seed=3), cam, distorted=False)
    frames, flows = apply_jitter([frame, frame, frame], JitterSpec(amplitude=0.0, seed=1))
    for f in frames:
        assert np.array_equal(f.values, frame.values)
    for fl in flows:
        assert np.all(fl.u == 0.0) and np.all(fl.v == 0.0)
        assert fl.direction is Direction.FORWARD


def test_jitter_white_noise_reproducible():
    spec = JitterSpec(amplitude=3.0, profile=JitterProfile.WHITE_NOISE, seed=42)
    a = jitter_signal(spec, 10)
    b = jitter_signal(spec, 10)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert np.max(np.abs(a[0])) <= 3.0 and np.max(np.abs(a[2])) <= 3.0 / 50.0


def test_jitter_sinusoidal_offsets_recovered_from_true_flows():
    spec = JitterSpec(amplitude=2.0, profile=JitterProfile.SINUSOIDAL, period_frames=16,
                      seed=0, rotation=False)
    cam = CameraSpec(width=48, height=48, focal_px=60.0)
    frame, _ = render_scene(default_scene(cam, 2, 1, seed=9), cam, distorted=False)
    _, flows = apply_jitter([frame] * 16, spec)
    # Pure translation: each pair flow is constant d_{t+1} - d_t; integrate.
    offsets = np.concatenate([[0.0], np.cumsum([np.mean(f.u) for f in flows])])
    t = np.arange(16)
    assert np.max(np.abs(offsets - 2.0 * np.sin(2.0 * np.pi * t / 16.0))) < 0.01


def test_jitter_pair_flows_are_photometrically_consistent():
    cam = CameraSpec(width=64, height=64, focal_px=60.0)
    frame, _ = render_scene(default_scene(cam, 3, 1, seed=7), cam, distorted=False)
    frames, flows = apply_jitter([frame] * 4, JitterSpec(amplitude=1.5, seed=8))
    g = np.mgrid[0:64, 0:64].astype(np.float64)
    for t, fl in enumerate(flows):
        xs = g[1] + fl.u
        ys = g[0] + fl.v
        resampled = sample_bilinear(frames[t + 1].values, xs, ys)
        err = np.abs(resampled - frames[t].values)[8:-8, 8:-8]
        assert np.mean(err) < 0.02


def test_jitter_rejects_short_sequences():
    cam = CameraSpec(width=16, height=16, focal_px=30.0)
    frame, _ = render_scene(SceneSpec(seed=0), cam, distorted=False)
    with pytest.raises(DataError):
        apply_jitter([frame], JitterSpec(amplitude=1.0))


def test_face_mask_ellipse_area():
    ang = np.radians(np.arange(0, 360, 10))
    pts = np.stack([32.0 + 10.0 * np.cos(ang), 32.0 + 10.0 * np.sin(ang)], axis=1)
    mask = face_mask(pts, (64, 64))
    area = float(mask.values.sum())
    assert abs(area - np.pi * 11.0 ** 2) <= 0.05 * np.pi * 11.0 ** 2
    assert set(np.unique(mask.values)) <= {0, 1}


def test_face_mask_degenerate_falls_back_to_rectangle():
    pts = [(20.0, 20.0), (20.0 + 1e-12, 20.0), (20.0, 20.0 + 1e-12)]
    mask = face_mask(pts, (40, 40))
    assert mask.values[20, 20] == 1
    assert mask.values.sum() >= 1
    # Collinear but extended: rectangle covers the segment's bounding box.
    pts = [(10.0, 15.0), (20.0, 15.0), (30.0, 15.0)]
    mask = face_mask(pts, (40, 40))
    assert mask.values[15, 20] == 1
    assert mask.values[18, 20] == 0  # thin in y
    with pytest.raises(DataError):
        face_mask([(0.0, 0.0), (1.0, 1.0)], (8, 8))


def test_jittered_face_masks_without_jitter_are_the_rectified_face_union():
    cam = CameraSpec(width=64, height=48, focal_px=50.0)
    _, ann = render_scene(default_scene(cam, n_lines=2, n_faces=2, seed=4), cam, distorted=True)
    dims = (cam.height, cam.width)
    union = np.zeros(dims, dtype=np.uint8)
    for face in ann.faces:
        union = np.maximum(union, face_mask(undistort_points(face.landmarks_image, cam),
                                            dims).values)
    assert len(ann.faces) == 2 and union.sum() > 0
    masks = jittered_face_masks(ann.faces, cam, *jitter_signal(JitterSpec(amplitude=0.0), 3))
    assert len(masks) == 3
    for mask in masks:
        assert np.array_equal(mask.values, union)


def test_annotation_text_round_trip():
    cam = CameraSpec(width=64, height=64, focal_px=60.0)
    spec = default_scene(cam, n_lines=3, n_faces=2, seed=13)
    _, ann = render_scene(spec, cam, distorted=True)
    text = annotations_to_text(ann)
    back = annotations_from_text(text)
    assert len(back.lines) == 3 and len(back.faces) == 2
    for a, b in zip(ann.lines, back.lines):
        assert np.array_equal(a.points_ideal, b.points_ideal)
        assert np.array_equal(a.points_image, b.points_image)
        assert a.out_of_frame == b.out_of_frame
    for a, b in zip(ann.faces, back.faces):
        assert np.array_equal(a.landmarks_ideal, b.landmarks_ideal)
