"""Tests for line straightness, shape fidelity, and stability metrics."""

import math

import numpy as np
import pytest

from rectiflow import ConfigError, DataError, ShapeError
from rectiflow.metrics import (
    LineSample,
    StabilityReport,
    line_acc,
    shape_acc,
    spectrum_csv,
    stability_score,
    stability_series,
)
from rectiflow.synth import CameraSpec, distort_points, undistort_points
from rectiflow.trajectory import accumulate


def _series_from_translations(tx, ty=None, h=8, w=8):
    """Trajectory whose frame-t position field is the constant (tx[t], ty[t])."""
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.zeros_like(tx) if ty is None else np.asarray(ty, dtype=np.float64)
    assert tx[0] == 0.0 and ty[0] == 0.0
    residuals = []
    prev = np.zeros(2)
    for t in range(tx.shape[0]):
        cur = np.array([tx[t], ty[t]])
        residuals.append(np.broadcast_to(cur - prev, (h, w, 2)).copy())
        prev = cur
    return accumulate(residuals)


def _line_acc_brute(points_list):
    per_line = []
    for pts in points_list:
        centered = pts - pts.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered)
        axis = evecs[:, int(np.argmax(evals))]
        total = 0.0
        m = pts.shape[0] - 1
        for i in range(m):
            seg = pts[i + 1] - pts[i]
            total += abs(float(seg @ axis)) / float(np.linalg.norm(seg))
        per_line.append(100.0 * total / m)
    return float(np.mean(per_line))


def test_line_acc_collinear_is_100():
    t = np.array([0.0, 0.7, 1.1, 2.9, 4.0])
    pts = np.stack([3.0 + 2.0 * t, -1.0 + 0.5 * t], axis=1)
    assert line_acc([LineSample(points=pts)]) == pytest.approx(100.0, abs=1e-12)


def test_line_acc_right_angle_staircase():
    # Odd staircase ending on the diagonal: principal axis is exactly 45 deg.
    pts5 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0], [2.0, 2.0]])
    want = 100.0 / math.sqrt(2.0)
    assert line_acc([LineSample(points=pts5)]) == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(70.71067811865474, abs=1e-11)
    steps = [[0.0, 0.0]]
    for k in range(4):
        steps.append([steps[-1][0] + 1.0, steps[-1][1]])
        steps.append([steps[-1][0], steps[-1][1] + 1.0])
    assert line_acc([LineSample(points=np.array(steps))]) == pytest.approx(want, abs=1e-9)


def test_line_acc_semicircle_matches_brute_force():
    ang = np.deg2rad(np.arange(0.0, 181.0, 10.0))
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    got = line_acc([LineSample(points=pts)])
    assert got == pytest.approx(_line_acc_brute([pts]), abs=1e-12)
    assert got < 100.0


def test_line_acc_multiple_lines_and_brute_force_random():
    rng = np.random.default_rng(8)
    sets = [np.cumsum(rng.uniform(-1.0, 1.0, (6, 2)), axis=0) + rng.uniform(-5, 5, 2)
            for _ in range(4)]
    samples = [LineSample(points=p) for p in sets]
    assert line_acc(samples) == pytest.approx(_line_acc_brute(sets), abs=1e-10)


def test_line_acc_rotation_and_scale_invariant():
    rng = np.random.default_rng(3)
    pts = np.cumsum(rng.uniform(-1.0, 1.0, (9, 2)), axis=0)
    base = line_acc([LineSample(points=pts)])
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    moved = 2.3 * pts @ rot.T + np.array([11.0, -4.0])
    assert line_acc([LineSample(points=moved)]) == pytest.approx(base, abs=1e-9)


def test_line_sample_validation():
    with pytest.raises(DataError):
        LineSample(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(DataError):
        LineSample(points=np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ShapeError):
        LineSample(points=np.zeros((4, 3)))
    with pytest.raises(DataError):
        line_acc([])


def test_shape_acc_identity_and_scale():
    rng = np.random.default_rng(5)
    ref = rng.uniform(0.0, 30.0, (7, 2))
    assert shape_acc(ref, ref) == pytest.approx(100.0, abs=1e-12)
    scaled = ref.mean(axis=0) + 3.7 * (ref - ref.mean(axis=0))
    assert shape_acc(ref, scaled) == pytest.approx(100.0, abs=1e-9)
    shifted = ref + np.array([100.0, -40.0])
    assert shape_acc(ref, shifted) == pytest.approx(100.0, abs=1e-12)


def test_shape_acc_reflection_matches_brute_force():
    rng = np.random.default_rng(9)
    ref = rng.uniform(0.0, 10.0, (7, 2))
    centroid = ref.mean(axis=0)
    corr = np.stack([ref[:, 0], 2.0 * centroid[1] - ref[:, 1]], axis=1)
    rc = (ref - centroid).ravel()
    cc = (corr - corr.mean(axis=0)).ravel()
    want = 100.0 * float(rc @ cc) / (np.linalg.norm(rc) * np.linalg.norm(cc))
    got = shape_acc(ref, corr)
    assert got == pytest.approx(min(max(want, 0.0), 100.0), abs=1e-12)
    assert got < 100.0


def test_shape_acc_clamps_and_errors():
    ref = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    flipped = ref.mean(axis=0) - (ref - ref.mean(axis=0))
    assert shape_acc(ref, flipped) == 0.0
    with pytest.raises(ShapeError):
        shape_acc(ref, ref[:2])
    with pytest.raises(DataError):
        shape_acc(ref[:1].repeat(3, axis=0), ref)
    with pytest.raises(DataError):
        shape_acc(np.ones((3, 2)), ref)


def test_stability_zero_trajectory_is_perfect():
    series = _series_from_translations(np.zeros(16))
    rep = stability_score(series)
    assert (rep.avg, rep.translational, rep.rotational) == (1.0, 1.0, 1.0)


def test_stability_single_low_bin_scores_one():
    t = np.arange(64)
    tx = 0.5 * (1.0 - np.cos(2.0 * np.pi * 2.0 * t / 64.0))
    rep = stability_score(_series_from_translations(tx))
    assert rep.translational > 1.0 - 1e-9
    assert rep.rotational == 1.0
    assert rep.avg == pytest.approx(0.5 * (rep.translational + 1.0), abs=1e-15)


def test_stability_nyquist_alternation_scores_zero():
    t = np.arange(64)
    tx = 0.5 * (1.0 - (-1.0) ** t)
    rep = stability_score(_series_from_translations(tx))
    assert rep.translational < 1e-9
    assert rep.avg == pytest.approx(0.5, abs=1e-9)


def test_stability_band_ratio_matches_analytic_mix():
    t = np.arange(64)
    a, b = 0.3, 0.4
    tx = (a * (1.0 - np.cos(2.0 * np.pi * 2.0 * t / 64.0))
          + b * (1.0 - np.cos(2.0 * np.pi * 5.0 * t / 64.0)))
    series = _series_from_translations(tx)
    assert stability_score(series).translational > 1.0 - 1e-9
    narrow = stability_score(series, low_band=(2, 3))
    assert narrow.translational == pytest.approx(a * a / (a * a + b * b), abs=1e-6)
    with pytest.raises(ConfigError):
        stability_score(series, low_band=(1, 6))
    with pytest.raises(ConfigError):
        stability_score(series, low_band=(4, 3))


def test_stability_noise_sweep_is_non_increasing():
    t = np.arange(64)
    base = 0.5 * (1.0 - np.cos(2.0 * np.pi * 2.0 * t / 64.0))
    rng = np.random.default_rng(12)
    noise = rng.uniform(0.0, 1.0, 64)
    noise[0] = 0.0
    scores = []
    for amp in (0.0, 0.05, 0.2, 0.8, 3.0):
        rep = stability_score(_series_from_translations(base + amp * noise))
        scores.append(rep.translational)
    for a, b in zip(scores, scores[1:]):
        assert b <= a + 1e-12


def test_stability_needs_enough_frames():
    with pytest.raises(ShapeError):
        stability_score(_series_from_translations(np.zeros(7)))


def test_default_band_that_holds_every_scored_bin_is_rejected():
    """A 12-frame run scores bins 2..6: the default band (2, 6) holds all of
    them, so a random walk would score 1.0 like a still camera."""
    walk = np.concatenate([[0.0], np.cumsum(np.random.default_rng(5).normal(size=11))])
    series = _series_from_translations(walk)
    with pytest.raises(ConfigError, match="12-frame run"):
        stability_score(series)
    assert stability_score(series, low_band=(2, 3)).translational < 1.0


def test_stability_report_invariants():
    with pytest.raises(DataError):
        StabilityReport(avg=0.9, translational=1.0, rotational=1.0)
    with pytest.raises(DataError):
        StabilityReport(avg=1.1, translational=1.1, rotational=1.1)


def test_correction_strictly_improves_line_and_shape_scores():
    cam = CameraSpec(width=128, height=128, focal_px=60.0)
    segs = [((20.0, 30.0), (100.0, 42.0)), ((30.0, 100.0), (108.0, 80.0))]
    ideal_lines, observed_lines = [], []
    for (x0, y0), (x1, y1) in segs:
        s = np.linspace(0.0, 1.0, 15)[:, None]
        pts = np.array([[x0, y0]]) * (1.0 - s) + np.array([[x1, y1]]) * s
        ideal_lines.append(pts)
        observed_lines.append(distort_points(pts, cam))
    score_obs = line_acc([LineSample(points=p) for p in observed_lines])
    corrected = [undistort_points(p, cam) for p in observed_lines]
    score_corr = line_acc([LineSample(points=p) for p in corrected])
    assert score_obs < 100.0
    assert score_corr > score_obs
    assert score_corr == pytest.approx(100.0, abs=1e-6)

    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    ref = np.stack([80.0 + 15.0 * np.cos(ang), 50.0 + 10.0 * np.sin(ang)], axis=1)
    observed = distort_points(ref, cam)
    assert shape_acc(ref, observed) < 100.0
    assert shape_acc(ref, undistort_points(observed, cam)) > shape_acc(ref, observed)


def test_spectrum_csv():
    series = _series_from_translations(
        0.5 * (1.0 - np.cos(2.0 * np.pi * 2.0 * np.arange(16) / 16.0)))
    text = spectrum_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "bin,translational,rotational"
    assert len(lines) == 1 + 16 // 2 + 1
    trans, _ = stability_series(series)
    energy = np.abs(np.fft.rfft(trans)) ** 2
    row2 = lines[3].split(",")
    assert int(row2[0]) == 2
    assert float(row2[1]) == pytest.approx(energy[2], rel=1e-12)
