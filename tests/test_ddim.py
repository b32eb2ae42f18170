"""Tests for deterministic diffusion sampling over flow fields."""

import numpy as np
import pytest

from rectiflow import ContractError, DataError, Direction, FlowField, Frame, Mask, ShapeError
from rectiflow.ddim import (
    Conditioning,
    Schedule,
    assemble_condition,
    ddim_sample,
    ddim_step,
    make_schedule,
    oracle_denoiser,
    sampling_timesteps,
    stub_denoiser,
)


def _cond(h=16, w=16):
    m = Mask(values=np.ones((h, w), dtype=np.uint8))
    img = Frame(values=np.full((h, w, 3), 0.5))
    return assemble_condition(m, img)


def test_make_schedule_values():
    s = make_schedule(1, 0.5, 0.5)
    assert np.array_equal(s.alpha_bar, [1.0, 0.5])
    s = make_schedule(1000)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] > 0
    with pytest.raises(DataError):
        make_schedule(0)
    with pytest.raises(DataError):
        make_schedule(10, 0.2, 0.1)
    with pytest.raises(DataError):
        make_schedule(10, 0.0, 0.1)


def test_schedule_validation():
    with pytest.raises(DataError):
        Schedule(total_steps=2, alpha_bar=np.array([0.9, 0.5, 0.2]))
    with pytest.raises(DataError):
        Schedule(total_steps=2, alpha_bar=np.array([1.0, 0.5, 0.5]))
    with pytest.raises(ShapeError):
        Schedule(total_steps=2, alpha_bar=np.array([1.0, 0.5]))


def test_ddim_step_scalar_hand_case():
    s = Schedule(total_steps=2, alpha_bar=np.array([1.0, 0.81, 0.25]))
    x = np.array([[[1.0, 1.0]]])
    eps = np.array([[[0.5, 0.5]]])
    out = ddim_step(x, eps, 2, 1, s)
    x0_hat = (1.0 - np.sqrt(0.75) * 0.5) / 0.5
    want = 0.9 * x0_hat + np.sqrt(0.19) * 0.5
    assert out[0, 0, 0] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(1.238522083771039, abs=1e-12)


def test_ddim_step_zero_eps_projection_and_near_identity():
    s = Schedule(total_steps=1, alpha_bar=np.array([1.0, 0.64]))
    x = np.full((2, 2, 2), 0.4)
    out = ddim_step(x, np.zeros_like(x), 1, 0, s)
    assert np.allclose(out, 0.4 / 0.8, atol=1e-12)
    # As the schedule degenerates toward alpha_bar = 1 the step approaches identity.
    s2 = Schedule(total_steps=1, alpha_bar=np.array([1.0, 1.0 - 1e-12]))
    out2 = ddim_step(x, np.full_like(x, 0.3), 1, 0, s2)
    assert np.max(np.abs(out2 - x)) < 1e-6


def test_ddim_step_is_jointly_linear():
    s = make_schedule(10)
    rng = np.random.default_rng(3)
    x1, x2 = rng.standard_normal((2, 4, 4, 2))
    e1, e2 = rng.standard_normal((2, 4, 4, 2))
    lhs = ddim_step(2.0 * x1 - x2, 2.0 * e1 - e2, 7, 3, s)
    rhs = 2.0 * ddim_step(x1, e1, 7, 3, s) - ddim_step(x2, e2, 7, 3, s)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_ddim_step_range_contract():
    s = make_schedule(10)
    x = np.zeros((2, 2, 2))
    with pytest.raises(ContractError):
        ddim_step(x, x, 3, 3, s)
    with pytest.raises(ContractError):
        ddim_step(x, x, 11, 0, s)


def test_sampling_timesteps_cover_endpoints():
    ts = sampling_timesteps(1000, 50)
    assert ts[0] == 1000 and ts[-1] == 0
    assert np.all(np.diff(ts) < 0)
    assert len(ts) == 51
    assert np.array_equal(sampling_timesteps(10, 10), np.arange(10, -1, -1))
    with pytest.raises(ContractError):
        sampling_timesteps(10, 11)


def test_oracle_recovery_for_any_step_count():
    rng = np.random.default_rng(9)
    target = FlowField(u=rng.uniform(-20, 20, (16, 16)), v=rng.uniform(-20, 20, (16, 16)),
                       direction=Direction.BACKWARD)
    schedule = make_schedule(1000)
    cond = _cond()
    for steps in (1, 5, 50):
        denoiser = oracle_denoiser(target, schedule)
        out = ddim_sample(denoiser, cond, (16, 16), steps=steps, schedule=schedule, seed=4)
        assert out.direction is Direction.BACKWARD
        err = max(np.max(np.abs(out.u - target.u)), np.max(np.abs(out.v - target.v)))
        assert err < 1e-5


def test_sampling_is_seed_deterministic():
    schedule = make_schedule(200)
    cond = _cond()
    a = ddim_sample(stub_denoiser(5), cond, (16, 16), steps=10, schedule=schedule, seed=7)
    b = ddim_sample(stub_denoiser(5), cond, (16, 16), steps=10, schedule=schedule, seed=7)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    c = ddim_sample(stub_denoiser(5), cond, (16, 16), steps=10, schedule=schedule, seed=8)
    assert not np.array_equal(a.u, c.u)


def test_zero_denoiser_single_step_scales_noise():
    schedule = make_schedule(1, 0.19, 0.19)

    def zero_denoiser(x_t, t, cond):
        return np.zeros_like(x_t)

    out = ddim_sample(zero_denoiser, _cond(), (16, 16), steps=1, schedule=schedule, seed=11,
                      max_displacement=1.0)
    x_start = np.random.default_rng(11).standard_normal((16, 16, 2))
    assert np.allclose(out.uv, x_start / np.sqrt(0.81), atol=1e-12)


def test_sampling_finite_with_stub():
    out = ddim_sample(stub_denoiser(1), _cond(), (16, 16), steps=25, seed=3)
    assert np.all(np.isfinite(out.u)) and np.all(np.isfinite(out.v))


def test_assemble_condition_channel_order():
    h = w = 8
    m = Mask(values=np.ones((h, w), dtype=np.uint8))
    img = Frame(values=np.full((h, w, 3), 0.25))
    cond = assemble_condition(m, img)
    assert cond.values.shape == (h, w, 4)
    assert cond.n_features == 0
    feats = np.zeros((h, w, 8))
    for c in range(8):
        feats[..., c] = 10.0 + c
    cond = assemble_condition(m, img, feats)
    assert cond.values.shape == (h, w, 12)
    assert np.all(cond.mask_channel == 1.0)
    assert np.all(cond.image_channels == 0.25)
    assert np.all(cond.feature_channels[..., 3] == 13.0)
    with pytest.raises(ShapeError):
        assemble_condition(m, img, np.zeros((h + 1, w, 2)))
    with pytest.raises(ShapeError):
        assemble_condition(m, Frame(values=np.zeros((h, w))))
