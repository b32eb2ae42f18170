"""Pipeline configuration: INI parsing, validation, and typed access.

One config file drives every subcommand. Unknown sections or keys are
rejected by name so typos fail loudly. Values are validated, and the
stage parameter objects built, on load, before any stage writes.
Environment variables are never consulted.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError, ShapeError
from .synth import CameraSpec, JitterProfile, JitterSpec
from .interflow import HSParams
from .adapt import AdaptParams
from .metrics import DEFAULT_LOW_BAND, check_low_band

_SCHEMA = {
    "pipeline": {"mode", "seed", "frames", "out", "adaptation"},
    "camera": {"width", "height", "focal_px"},
    "scene": {"n_lines", "n_faces"},
    "jitter": {"amplitude", "profile", "period_frames", "rotation"},
    "flow": {"alpha", "iterations", "pyramid_levels", "downscale"},
    "losses": {"lambda_temporal", "mu_mask"},
    "adapt": {"step_size", "max_iters", "tol"},
    "metrics": {"low_band"},
    "ingest": {"frames_dir", "masks_dir", "flows_dir", "pseudo_dir", "annotations"},
}

_PROFILES = {"white_noise": JitterProfile.WHITE_NOISE,
             "sinusoidal": JitterProfile.SINUSOIDAL}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved, validated settings for one pipeline run.

    The stage parameter objects are built once, at load; adapt is None
    exactly when [pipeline] adaptation = false.
    """

    mode: str
    seed: int
    frames: int
    out: str | None
    threads: int
    camera: CameraSpec
    n_lines: int
    n_faces: int
    jitter: JitterSpec
    flow: HSParams
    adapt: AdaptParams | None
    low_band: tuple[int, int]
    frames_dir: str | None
    masks_dir: str | None
    flows_dir: str | None
    pseudo_dir: str | None
    annotations: str | None


def _build(section: str, cls, **kwargs):
    """Construct one parameter object, reporting a bad value as a ConfigError."""
    try:
        return cls(**kwargs)
    except (DataError, ShapeError) as exc:
        raise ConfigError(f"invalid {section} settings: {exc}") from None


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
    ingest = sect("ingest")
    if mode == "synthetic" and ingest.raw:
        raise ConfigError(f"[ingest] {next(iter(ingest.raw))} is read only in ingest mode; "
                          "remove it or set [pipeline] mode = ingest")
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
    camera = _build("[camera]", CameraSpec,
                    width=cam.get_int("width", 128), height=cam.get_int("height", 128),
                    focal_px=cam.get_float("focal_px", 60.0))

    jit = sect("jitter")
    profile = jit.get_str("profile", "white_noise")
    if profile not in _PROFILES:
        raise ConfigError(
            f"[jitter] profile must be one of {sorted(_PROFILES)}, got {profile!r}"
        )
    jitter = _build("[jitter]", JitterSpec,
                    amplitude=jit.get_float("amplitude", 1.0), profile=_PROFILES[profile],
                    period_frames=jit.get_int("period_frames", 8),
                    seed=seed + 1,
                    rotation=jit.get_bool("rotation", True))

    flow = sect("flow")
    hs = _build("[flow]", HSParams,
                alpha=flow.get_float("alpha", 15.0), iterations=flow.get_int("iterations", 100),
                pyramid_levels=flow.get_int("pyramid_levels", 4),
                downscale=flow.get_float("downscale", 0.5))

    # Parsed even with adaptation off, so a malformed number still fails.
    losses = sect("losses")
    opt = sect("adapt")
    adapt_kwargs = dict(
        lambda_temporal=losses.get_float("lambda_temporal", 10.0),
        mu_mask=losses.get_float("mu_mask", 1.0),
        step_size=opt.get_float("step_size", 0.25),
        max_iters=opt.get_int("max_iters", 100),
        tol=opt.get_float("tol", 1e-6),
    )
    adapt = None
    if pipe.get_bool("adaptation", True):
        adapt = _build("[losses]/[adapt]", AdaptParams, **adapt_kwargs)
        if mode == "synthetic" and frames < 3:
            raise ConfigError(f"[pipeline] frames must be >= 3 with adaptation, got {frames}")

    band_text = sect("metrics").get_str("low_band", "%d,%d" % DEFAULT_LOW_BAND)
    try:
        lo, hi = (int(v) for v in band_text.split(","))
    except ValueError:
        raise ConfigError(
            f"[metrics] low_band must be two comma-separated integers, got {band_text!r}"
        ) from None
    # An ingest run's frame count is known only once its inputs are listed.
    check_low_band((lo, hi), frames if mode == "synthetic" else None)

    scene = sect("scene")
    return PipelineConfig(
        mode=mode,
        seed=seed,
        frames=frames,
        out=out if out is not None else pipe.get_str("out"),
        threads=threads,
        camera=camera,
        n_lines=scene.get_int("n_lines", 6),
        n_faces=scene.get_int("n_faces", 2),
        jitter=jitter,
        flow=hs,
        adapt=adapt,
        low_band=(lo, hi),
        frames_dir=ingest.get_str("frames_dir"),
        masks_dir=ingest.get_str("masks_dir"),
        flows_dir=ingest.get_str("flows_dir"),
        pseudo_dir=ingest.get_str("pseudo_dir"),
        annotations=ingest.get_str("annotations"),
    )
