"""Deterministic diffusion sampling over flow fields.

The sampler runs the eta = 0 implicit update with an epsilon-predicting
denoiser behind a plain callable contract, so the analytic oracle used in
tests and any trained network are interchangeable. Flows are normalized
by a max-displacement constant before sampling and rescaled after;
conditioning is the channel stack [mask, source image, features].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DataError, ShapeError
from .field import Direction, FlowField, Frame, Mask

DEFAULT_T = 1000
DEFAULT_BETA_MIN = 1e-4
DEFAULT_BETA_MAX = 0.02
DEFAULT_STEPS = 50
DEFAULT_MAX_DISPLACEMENT = 64.0

DenoiserFn = Callable[[np.ndarray, int, "Conditioning"], np.ndarray]


@dataclass(frozen=True)
class Schedule:
    """Noise schedule: alpha_bar[t] for t = 0..T, alpha_bar[0] = 1 exactly."""

    total_steps: int
    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if ab.shape != (self.total_steps + 1,):
            raise ShapeError(f"alpha_bar must have length T+1 = {self.total_steps + 1}, got {ab.shape}")
        if ab[0] != 1.0:
            raise DataError("alpha_bar[0] must be exactly 1")
        if np.any(np.diff(ab) >= 0):
            raise DataError("alpha_bar must be strictly decreasing")
        if np.any(ab <= 0) or np.any(ab > 1):
            raise DataError("alpha_bar values must lie in (0, 1]")
        ab = np.ascontiguousarray(ab)
        ab.setflags(write=False)
        object.__setattr__(self, "alpha_bar", ab)


@dataclass(frozen=True)
class Conditioning:
    """Channel stack [mask (1), source image (3), features (C >= 0)]."""

    values: np.ndarray
    n_features: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 4 + self.n_features:
            raise ShapeError(
                f"conditioning must be (H, W, {4 + self.n_features}), got {v.shape}"
            )
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def mask_channel(self) -> np.ndarray:
        return self.values[..., 0]

    @property
    def image_channels(self) -> np.ndarray:
        return self.values[..., 1:4]

    @property
    def feature_channels(self) -> np.ndarray:
        return self.values[..., 4:]


def assemble_condition(m: Mask, i_s: Frame, h=None) -> Conditioning:
    """Concatenate mask, 3-channel source image, and optional feature raster."""
    if i_s.channels != 3:
        raise ShapeError(f"source image must have 3 channels, got {i_s.channels}")
    if (m.height, m.width) != (i_s.height, i_s.width):
        raise ShapeError("mask and image dimensions differ")
    parts = [m.as_float()[..., None], i_s.channel_stack()]
    if h is None:
        n_feat = 0
    else:
        h = np.asarray(h, dtype=np.float64)
        if h.ndim == 2:
            h = h[..., None]
        if h.ndim != 3 or h.shape[:2] != (m.height, m.width):
            raise ShapeError(f"feature raster shape {h.shape} does not match {m.height}x{m.width}")
        n_feat = h.shape[2]
        parts.append(h)
    return Conditioning(values=np.concatenate(parts, axis=2), n_features=n_feat)


def make_schedule(total_steps: int, beta_min: float = DEFAULT_BETA_MIN,
                  beta_max: float = DEFAULT_BETA_MAX) -> Schedule:
    """Linear-beta schedule; alpha_bar[t] is the running product of (1 - beta)."""
    if total_steps < 1:
        raise DataError(f"total_steps must be >= 1, got {total_steps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise DataError(f"need 0 < beta_min <= beta_max < 1, got {beta_min}, {beta_max}")
    betas = np.linspace(beta_min, beta_max, total_steps)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return Schedule(total_steps=total_steps, alpha_bar=alpha_bar)


def ddim_step(x_t: np.ndarray, eps_hat: np.ndarray, t: int, t_prev: int,
              schedule: Schedule) -> np.ndarray:
    """One implicit update from step t to t_prev (eta = 0).

    x0_hat = (x_t - sqrt(1 - a_t)*eps) / sqrt(a_t);
    x_prev = sqrt(a_prev)*x0_hat + sqrt(1 - a_prev)*eps.
    """
    if not (0 <= t_prev < t <= schedule.total_steps):
        raise ContractError(f"need 0 <= t_prev < t <= {schedule.total_steps}, got t={t}, t_prev={t_prev}")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if x_t.shape != eps_hat.shape:
        raise ShapeError(f"x_t shape {x_t.shape} does not match eps_hat {eps_hat.shape}")
    a_t = schedule.alpha_bar[t]
    a_prev = schedule.alpha_bar[t_prev]
    x0_hat = (x_t - np.sqrt(1.0 - a_t) * eps_hat) / np.sqrt(a_t)
    return np.sqrt(a_prev) * x0_hat + np.sqrt(1.0 - a_prev) * eps_hat


def sampling_timesteps(total_steps: int, steps: int) -> np.ndarray:
    """Uniform subset of step indices from T down to 0, inclusive of both."""
    if steps < 1:
        raise DataError(f"steps must be >= 1, got {steps}")
    if steps > total_steps:
        raise ContractError(f"steps {steps} exceeds schedule length {total_steps}")
    ts = np.unique(np.round(np.linspace(0, total_steps, steps + 1)).astype(int))[::-1]
    return ts


def ddim_sample(denoiser: DenoiserFn, cond: Conditioning, dims: tuple[int, int],
                steps: int = DEFAULT_STEPS, schedule: Schedule | None = None,
                seed: int = 0, max_displacement: float = DEFAULT_MAX_DISPLACEMENT) -> FlowField:
    """Sample a backward correction flow by iterative denoising.

    Starts from seeded unit-Gaussian noise in normalized flow units and
    walks the uniform timestep subset down to 0; the result is rescaled by
    max_displacement into pixels. Deterministic given (seed, schedule,
    denoiser).
    """
    if schedule is None:
        schedule = make_schedule(DEFAULT_T)
    h, w = dims
    if (cond.values.shape[0], cond.values.shape[1]) != (h, w):
        raise ShapeError(f"conditioning is {cond.values.shape[:2]}, dims are {dims}")
    if max_displacement <= 0:
        raise DataError(f"max_displacement must be positive, got {max_displacement}")
    ts = sampling_timesteps(schedule.total_steps, steps)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, w, 2))
    for t, t_prev in zip(ts[:-1], ts[1:]):
        eps_hat = np.asarray(denoiser(x, int(t), cond), dtype=np.float64)
        if eps_hat.shape != x.shape:
            raise ShapeError(f"denoiser returned shape {eps_hat.shape}, expected {x.shape}")
        if not np.all(np.isfinite(eps_hat)):
            raise DataError("denoiser returned non-finite values")
        x = ddim_step(x, eps_hat, int(t), int(t_prev), schedule)
    uv = x * max_displacement
    return FlowField(u=uv[..., 0], v=uv[..., 1], direction=Direction.BACKWARD)


def oracle_denoiser(target: FlowField, schedule: Schedule,
                    max_displacement: float = DEFAULT_MAX_DISPLACEMENT) -> DenoiserFn:
    """Denoiser that is exactly consistent with a known target flow.

    Predicts eps = (x_t - sqrt(a_t)*x*) / sqrt(1 - a_t) with x* the
    normalized target, which makes every implicit update land exactly on
    the target's trajectory regardless of step count.
    """
    x_star = target.uv / max_displacement

    def denoiser(x_t: np.ndarray, t: int, cond: Conditioning) -> np.ndarray:
        a_t = schedule.alpha_bar[t]
        if a_t >= 1.0:
            raise ContractError("oracle denoiser is undefined at t = 0")
        return (x_t - np.sqrt(a_t) * x_star) / np.sqrt(1.0 - a_t)

    return denoiser


def stub_denoiser(seed: int = 0) -> DenoiserFn:
    """Deterministic stand-in denoiser: a fixed random channel mixing.

    Carries no learned structure; it exists to exercise the sampling loop
    and its finiteness/shape contracts.
    """
    rng = np.random.default_rng(seed)
    mix = rng.uniform(-0.6, 0.6, size=(2, 2))
    bias = rng.uniform(-0.1, 0.1, size=2)

    def denoiser(x_t: np.ndarray, t: int, cond: Conditioning) -> np.ndarray:
        out = np.einsum("hwc,dc->hwd", x_t, mix)
        return out + bias * (1.0 + t / 1000.0)

    return denoiser
