"""Tests for spatiotemporal adaptation of correction-flow sequences."""

import numpy as np
import pytest

from rectiflow import (
    BorderPolicy,
    DataError,
    Direction,
    FlowField,
    Frame,
    Mask,
    ShapeError,
)
from rectiflow.adapt import (
    AdaptParams,
    AdaptStep,
    adapt_history_csv,
    adapt_sequence,
    correct_sequence,
)
from rectiflow.losses import LossWeights, loss_flow, loss_video


def _ones_masks(n, h, w):
    return [Mask(values=np.ones((h, w), dtype=np.uint8)) for _ in range(n)]


def _zero_fwd(n, h, w):
    return [FlowField.zeros(h, w, Direction.FORWARD) for _ in range(n - 1)]


def _smooth_base(h, w):
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    u = 0.4 + 0.002 * xs - 0.001 * ys
    v = -0.2 + 0.001 * xs + 0.002 * ys
    return u, v


def _jittered_instance(seed, n=8, h=16, w=16, amp=0.8):
    """Consistent constant-correction sequence plus per-frame shake."""
    rng = np.random.default_rng(seed)
    base_u, base_v = _smooth_base(h, w)
    offsets = rng.uniform(-amp, amp, (n, 2))
    pseudo = [
        FlowField(u=base_u + offsets[t, 0], v=base_v + offsets[t, 1],
                  direction=Direction.BACKWARD)
        for t in range(n)
    ]
    return pseudo, _ones_masks(n, h, w), _zero_fwd(n, h, w)


def test_lambda_zero_is_a_fixed_point():
    pseudo, masks, fwd = _jittered_instance(0)
    params = AdaptParams(lambda_temporal=0.0, max_iters=50)
    out, history = adapt_sequence(pseudo, masks, fwd, params)
    assert len(history) == 1
    for f, p in zip(out, pseudo):
        assert np.array_equal(f.u, p.u) and np.array_equal(f.v, p.v)
        assert loss_flow(f, p) == 0.0


def test_already_smooth_sequence_exits_immediately():
    n, h, w = 5, 12, 12
    base_u, base_v = _smooth_base(h, w)
    pseudo = [FlowField(u=base_u, v=base_v, direction=Direction.BACKWARD)] * n
    out, history = adapt_sequence(pseudo, _ones_masks(n, h, w), _zero_fwd(n, h, w))
    assert len(history) == 1
    assert history[0].total == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(out[2].u, base_u)


def test_adaptation_smooths_jittered_sequence():
    pseudo, masks, fwd = _jittered_instance(3, n=8, h=16, w=16, amp=0.8)
    params = AdaptParams(lambda_temporal=10.0, max_iters=200, tol=1e-10)
    out, history = adapt_sequence(pseudo, masks, fwd, params)
    initial = history[0].temporal
    final = history[-1].temporal
    assert initial > 0.1
    assert final <= 0.1 * initial
    fidelity = float(np.mean([loss_flow(f, p) for f, p in zip(out, pseudo)]))
    assert np.isfinite(fidelity) and fidelity < 1.0


def test_history_is_strictly_decreasing_many_seeds():
    for seed in range(20):
        pseudo, masks, fwd = _jittered_instance(seed, n=4, h=8, w=8)
        params = AdaptParams(lambda_temporal=5.0, max_iters=6, tol=0.0)
        _, history = adapt_sequence(pseudo, masks, fwd, params)
        totals = [row.total for row in history]
        assert len(totals) >= 2
        assert all(b < a for a, b in zip(totals, totals[1:]))


def test_lambda_sweep_monotonic_final_temporal():
    finals = []
    for lam in (0.0, 1.0, 10.0, 100.0):
        pseudo, masks, fwd = _jittered_instance(7, n=6, h=12, w=12)
        params = AdaptParams(lambda_temporal=lam, max_iters=120, tol=1e-12)
        _, history = adapt_sequence(pseudo, masks, fwd, params)
        finals.append(history[-1].temporal)
    for a, b in zip(finals, finals[1:]):
        assert b <= a + 1e-12


def test_adaptation_is_deterministic():
    pseudo, masks, fwd = _jittered_instance(11)
    params = AdaptParams(max_iters=25)
    out1, hist1 = adapt_sequence(pseudo, masks, fwd, params)
    out2, hist2 = adapt_sequence(pseudo, masks, fwd, params)
    assert hist1 == hist2
    for a, b in zip(out1, out2):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_adaptation_accepts_one_shot_iterables():
    # Every objective evaluation walks masks and inter-frame flows again,
    # so generators must give the same run as lists.
    pseudo, masks, fwd = _jittered_instance(7, n=5, h=10, w=10)
    params = AdaptParams(max_iters=5)
    out_list, hist_list = adapt_sequence(pseudo, masks, fwd, params)
    out_gen, hist_gen = adapt_sequence(iter(pseudo), (m for m in masks), (f for f in fwd), params)
    assert hist_gen == hist_list and len(hist_list) > 1
    for a, b in zip(out_gen, out_list):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_adapt_rejects_short_sequences_and_bad_params():
    pseudo, masks, fwd = _jittered_instance(1, n=2)
    with pytest.raises(ShapeError):
        adapt_sequence(pseudo, masks, fwd)
    with pytest.raises(DataError):
        AdaptParams(step_size=0.0)
    with pytest.raises(DataError):
        AdaptParams(max_iters=0)
    with pytest.raises(DataError):
        AdaptParams(tol=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError):
            AdaptParams(step_size=bad)
        with pytest.raises(DataError):
            AdaptParams(tol=bad)
    with pytest.raises(DataError):
        AdaptParams(backtrack_factor=1.0)
    with pytest.raises(DataError):
        AdaptParams(lambda_temporal=-1.0)


def test_total_matches_loss_video_at_every_accepted_state():
    pseudo, masks, fwd = _jittered_instance(5, n=5, h=10, w=10)
    params = AdaptParams(lambda_temporal=3.0, max_iters=10, tol=0.0)
    out, history = adapt_sequence(pseudo, masks, fwd, params)
    lw = LossWeights(lambda_temporal=3.0, mu_mask=1.0)
    report = loss_video(out, pseudo, masks, fwd, lw)
    assert history[-1].total == pytest.approx(report.total, rel=1e-12)
    assert history[-1].spatial == pytest.approx(report.terms["spatial"], rel=1e-12)


def test_history_csv_layout():
    rows = [
        AdaptStep(iteration=0, total=2.5, spatial=0.5, temporal=0.2, step_size=0.25),
        AdaptStep(iteration=1, total=2.0, spatial=0.6, temporal=0.14, step_size=0.125),
    ]
    text = adapt_history_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,total,spatial,temporal,step_size"
    assert lines[1].split(",") == ["0", "2.5", "0.5", "0.2", "0.25"]
    assert float(lines[2].split(",")[4]) == 0.125


def test_correct_sequence_applies_per_frame_warp():
    rng = np.random.default_rng(4)
    frames = [Frame(values=rng.random((8, 8, 3))) for _ in range(3)]
    zero = [FlowField.zeros(8, 8, Direction.BACKWARD) for _ in range(3)]
    out = correct_sequence(frames, zero)
    for a, b in zip(out, frames):
        assert np.array_equal(a.values, b.values)
    single = correct_sequence(frames[:1], zero[:1], BorderPolicy.ZERO)
    assert len(single) == 1
    with pytest.raises(ShapeError):
        correct_sequence(frames, zero[:2])
