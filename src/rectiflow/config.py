"""Pipeline configuration: INI parsing, validation, and typed access.

One config file drives every subcommand. Unknown sections or keys are
rejected by name so typos fail loudly; values are validated on load.
Environment variables are never consulted.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError
from .synth import CameraSpec, JitterProfile, JitterSpec
from .interflow import HSParams
from .losses import LossWeights
from .adapt import AdaptParams

_SCHEMA = {
    "pipeline": {"mode", "seed", "frames", "out", "adaptation"},
    "camera": {"width", "height", "focal_px", "principal_x", "principal_y"},
    "scene": {"n_lines", "n_faces", "seed"},
    "jitter": {"amplitude", "profile", "period_frames", "rotation", "seed"},
    "flow": {"alpha", "iterations", "pyramid_levels", "downscale"},
    "losses": {"lambda1", "lambda2", "lambda3", "lambda_temporal", "mu_mask"},
    "adapt": {"step_size", "max_iters", "tol", "backtrack_factor"},
    "schedule": {"total_steps", "beta_min", "beta_max", "steps", "max_displacement"},
    "metrics": {"low_band"},
    "ingest": {"frames_dir", "masks_dir", "flows_dir", "pseudo_dir", "annotations"},
}

_PROFILES = {"white_noise": JitterProfile.WHITE_NOISE,
             "sinusoidal": JitterProfile.SINUSOIDAL}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved, validated settings for one pipeline run."""

    mode: str
    seed: int
    frames: int
    out: str | None
    adaptation: bool
    threads: int
    width: int
    height: int
    focal_px: float
    principal: tuple[float, float] | None
    n_lines: int
    n_faces: int
    scene_seed: int
    jitter_amplitude: float
    jitter_profile: str
    jitter_period: int
    jitter_rotation: bool
    jitter_seed: int
    hs_alpha: float
    hs_iterations: int
    hs_levels: int
    hs_downscale: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda_temporal: float
    mu_mask: float
    step_size: float
    max_iters: int
    tol: float
    backtrack_factor: float
    total_steps: int
    beta_min: float
    beta_max: float
    steps: int
    max_displacement: float
    low_band: tuple[int, int]
    frames_dir: str | None
    masks_dir: str | None
    flows_dir: str | None
    pseudo_dir: str | None
    annotations: str | None


class _Section:
    """Typed key access over one INI section with ConfigError diagnostics."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = raw

    def _convert(self, key, caster, default, kind):
        if key not in self.raw:
            return default
        text = self.raw[key]
        try:
            return caster(text)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] {key} = {text!r} is not a valid {kind}"
            ) from None

    def get_int(self, key, default=None):
        return self._convert(key, int, default, "integer")

    def get_float(self, key, default=None):
        return self._convert(key, float, default, "number")

    def get_str(self, key, default=None):
        return self.raw.get(key, default)

    def get_bool(self, key, default=None):
        if key not in self.raw:
            return default
        text = self.raw[key].strip().lower()
        if text in ("true", "yes", "on", "1"):
            return True
        if text in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"[{self.name}] {key} = {self.raw[key]!r} is not a valid boolean")


def _validate_keys(parser: configparser.ConfigParser):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")


def load_config(path, seed: int | None = None, out: str | None = None,
                threads: int | None = None) -> PipelineConfig:
    """Parse and validate a config file; flag values override its contents."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    _validate_keys(parser)

    def sect(name):
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    pipe = sect("pipeline")
    mode = pipe.get_str("mode", "synthetic")
    if mode not in ("synthetic", "ingest"):
        raise ConfigError(f"[pipeline] mode must be synthetic or ingest, got {mode!r}")
    if seed is None:
        seed = pipe.get_int("seed")
        if seed is None:
            raise ConfigError("[pipeline] seed is required")
    frames = pipe.get_int("frames", 12)
    if frames < 1:
        raise ConfigError(f"[pipeline] frames must be >= 1, got {frames}")
    if threads is None:
        threads = 1
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    cam = sect("camera")
    px = cam.get_float("principal_x")
    py = cam.get_float("principal_y")
    if (px is None) != (py is None):
        raise ConfigError("[camera] principal_x and principal_y must be set together")

    scene = sect("scene")
    jit = sect("jitter")
    profile = jit.get_str("profile", "white_noise")
    if profile not in _PROFILES:
        raise ConfigError(
            f"[jitter] profile must be one of {sorted(_PROFILES)}, got {profile!r}"
        )
    flow = sect("flow")
    losses = sect("losses")
    adapt = sect("adapt")
    sched = sect("schedule")
    metrics = sect("metrics")
    ingest = sect("ingest")

    band_text = metrics.get_str("low_band", "2,6")
    try:
        lo, hi = (int(v) for v in band_text.split(","))
    except ValueError:
        raise ConfigError(
            f"[metrics] low_band must be two comma-separated integers, got {band_text!r}"
        ) from None

    cfg = PipelineConfig(
        mode=mode,
        seed=seed,
        frames=frames,
        out=out if out is not None else pipe.get_str("out"),
        adaptation=pipe.get_bool("adaptation", True),
        threads=threads,
        width=cam.get_int("width", 128),
        height=cam.get_int("height", 128),
        focal_px=cam.get_float("focal_px", 60.0),
        principal=None if px is None else (px, py),
        n_lines=scene.get_int("n_lines", 6),
        n_faces=scene.get_int("n_faces", 2),
        scene_seed=scene.get_int("seed", seed),
        jitter_amplitude=jit.get_float("amplitude", 1.0),
        jitter_profile=profile,
        jitter_period=jit.get_int("period_frames", 8),
        jitter_rotation=jit.get_bool("rotation", True),
        jitter_seed=jit.get_int("seed", seed + 1),
        hs_alpha=flow.get_float("alpha", 15.0),
        hs_iterations=flow.get_int("iterations", 100),
        hs_levels=flow.get_int("pyramid_levels", 4),
        hs_downscale=flow.get_float("downscale", 0.5),
        lambda1=losses.get_float("lambda1", 1.0),
        lambda2=losses.get_float("lambda2", 1.0),
        lambda3=losses.get_float("lambda3", 1.0),
        lambda_temporal=losses.get_float("lambda_temporal", 10.0),
        mu_mask=losses.get_float("mu_mask", 1.0),
        step_size=adapt.get_float("step_size", 0.25),
        max_iters=adapt.get_int("max_iters", 100),
        tol=adapt.get_float("tol", 1e-6),
        backtrack_factor=adapt.get_float("backtrack_factor", 0.5),
        total_steps=sched.get_int("total_steps", 1000),
        beta_min=sched.get_float("beta_min", 1e-4),
        beta_max=sched.get_float("beta_max", 0.02),
        steps=sched.get_int("steps", 50),
        max_displacement=sched.get_float("max_displacement", 64.0),
        low_band=(lo, hi),
        frames_dir=ingest.get_str("frames_dir"),
        masks_dir=ingest.get_str("masks_dir"),
        flows_dir=ingest.get_str("flows_dir"),
        pseudo_dir=ingest.get_str("pseudo_dir"),
        annotations=ingest.get_str("annotations"),
    )
    if cfg.adaptation:
        # Bad optimizer settings must fail here, before any stage writes.
        try:
            build_adapt_params(cfg)
        except DataError as exc:
            raise ConfigError(f"invalid adaptation settings: {exc}") from None
    return cfg


def build_camera(cfg: PipelineConfig) -> CameraSpec:
    if cfg.principal is None:
        return CameraSpec(width=cfg.width, height=cfg.height, focal_px=cfg.focal_px)
    return CameraSpec(width=cfg.width, height=cfg.height, focal_px=cfg.focal_px,
                      principal_point=cfg.principal)


def build_jitter(cfg: PipelineConfig) -> JitterSpec:
    return JitterSpec(
        amplitude=cfg.jitter_amplitude,
        profile=_PROFILES[cfg.jitter_profile],
        period_frames=cfg.jitter_period,
        seed=cfg.jitter_seed,
        rotation=cfg.jitter_rotation,
    )


def build_hs_params(cfg: PipelineConfig) -> HSParams:
    return HSParams(alpha=cfg.hs_alpha, iterations=cfg.hs_iterations,
                    pyramid_levels=cfg.hs_levels, downscale=cfg.hs_downscale)


def build_loss_weights(cfg: PipelineConfig) -> LossWeights:
    return LossWeights(lambda1=cfg.lambda1, lambda2=cfg.lambda2, lambda3=cfg.lambda3,
                       lambda_temporal=cfg.lambda_temporal, mu_mask=cfg.mu_mask)


def build_adapt_params(cfg: PipelineConfig) -> AdaptParams:
    return AdaptParams(
        lambda_temporal=cfg.lambda_temporal,
        mu_mask=cfg.mu_mask,
        step_size=cfg.step_size,
        max_iters=cfg.max_iters,
        tol=cfg.tol,
        backtrack_factor=cfg.backtrack_factor,
    )
