"""Pipeline configuration: INI parsing, validation, and typed access.

One config file drives every subcommand. _SCHEMA names every key with its
kind and default; unknown sections or keys are rejected by name so typos
fail loudly. Values are validated, and the stage parameter objects built,
on load, before any stage writes. Environment variables are never consulted.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError, DomainError, ShapeError
from .synth import CameraSpec, JitterProfile, JitterSpec, distort_points
from .interflow import HSParams
from .adapt import AdaptParams
from .metrics import DEFAULT_LOW_BAND, check_low_band


def _checked(parse, ok):
    """parse, with a value that fails ok rejected like unparsable text."""
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return checked


_BOOLEANS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
             **dict.fromkeys(("false", "no", "off", "0"), False)}

# Each kind of value, as the error message names it, with its parser. A
# parser raises ValueError or KeyError on text it rejects.
_PARSERS = {
    "string": str,
    "integer": int,
    "integer >= 0": _checked(int, lambda value: value >= 0),
    "integer >= 1": _checked(int, lambda value: value >= 1),
    "number": float,
    "boolean": lambda text: _BOOLEANS[text.strip().lower()],
    "non-empty path": _checked(str, bool),
    "pair of comma-separated integers":
        _checked(lambda text: tuple(int(v) for v in text.split(",")), lambda v: len(v) == 2),
}

# A key with this default has a value only when the file sets it: [pipeline]
# seed and [ingest] frames_dir and pseudo_dir are then required in the mode
# that reads them, and a [flow], [losses] or [adapt] key takes the default
# of HSParams or AdaptParams, the only copy of it.
_NOT_SET = object()

# section -> key -> (kind of value, default)
_SCHEMA = {
    "pipeline": {"mode": ("string", "synthetic"), "seed": ("integer >= 0", _NOT_SET),
                 "frames": ("integer >= 1", 12), "out": ("non-empty path", None),
                 "adaptation": ("boolean", True)},
    "camera": {"width": ("integer", 128), "height": ("integer", 128),
               "focal_px": ("number", 60.0)},
    "scene": {"n_lines": ("integer >= 0", 6), "n_faces": ("integer >= 0", 2)},
    # period_frames is 8, not JitterSpec's 16, so that a sinusoidal clip of
    # the default 12 frames spans a whole period.
    "jitter": {"amplitude": ("number", 1.0), "profile": ("string", "white_noise"),
               "period_frames": ("integer", 8), "rotation": ("boolean", True)},
    "flow": {"alpha": ("number", _NOT_SET), "iterations": ("integer", _NOT_SET),
             "pyramid_levels": ("integer", _NOT_SET), "downscale": ("number", _NOT_SET)},
    "losses": {"lambda_temporal": ("number", _NOT_SET), "mu_mask": ("number", _NOT_SET)},
    "adapt": {"step_size": ("number", _NOT_SET), "max_iters": ("integer", _NOT_SET),
              "tol": ("number", _NOT_SET)},
    "metrics": {"low_band": ("pair of comma-separated integers", DEFAULT_LOW_BAND)},
    "ingest": {key: ("non-empty path", _NOT_SET if key in ("frames_dir", "pseudo_dir") else None)
               for key in ("frames_dir", "masks_dir", "flows_dir", "pseudo_dir", "annotations")},
}

# The keys that one mode alone reads, which a config of the other mode may
# not set: only the synth stage reads the synthetic world.
_MODE_KEYS = {
    "synthetic": [("pipeline", "seed"), ("pipeline", "frames"),
                  *((section, key) for section in ("camera", "scene", "jitter")
                    for key in _SCHEMA[section])],
    "ingest": [("ingest", key) for key in _SCHEMA["ingest"]],
}

_PROFILES = {"white_noise": JitterProfile.WHITE_NOISE,
             "sinusoidal": JitterProfile.SINUSOIDAL}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved, validated settings for one pipeline run.

    The stage parameter objects are built once, at load; adapt is None
    exactly when [pipeline] adaptation = false. The fields of the keys that
    only the other mode reads are None.
    """

    mode: str
    out: str | None
    threads: int
    flow: HSParams
    adapt: AdaptParams | None
    low_band: tuple[int, int]
    seed: int | None = None
    frames: int | None = None
    camera: CameraSpec | None = None
    n_lines: int | None = None
    n_faces: int | None = None
    jitter: JitterSpec | None = None
    frames_dir: str | None = None
    masks_dir: str | None = None
    flows_dir: str | None = None
    pseudo_dir: str | None = None
    annotations: str | None = None


def _build(section: str, cls, **kwargs):
    """Construct one parameter object, reporting a bad value as a ConfigError."""
    try:
        return cls(**kwargs)
    except (DataError, ShapeError) as exc:
        raise ConfigError(f"invalid {section} settings: {exc}") from None


def _parse(where: str, text: str, kind: str):
    try:
        return _PARSERS[kind](text)
    except (KeyError, ValueError):
        raise ConfigError(f"{where} {text!r} is not a valid {kind}") from None


def check_frame_count(cfg: PipelineConfig, frames: int | None, source: str) -> None:
    """Every rule on the frame count of cfg's run: adaptation needs >= 3
    frames, and [metrics] low_band must score them (check_low_band).
    frames is None in ingest mode, whose inputs decide the count:
    load_config then checks the band alone, and cli._files the rest when it
    first lists an input. source names what gave the count."""
    if cfg.adapt is not None and frames is not None and frames < 3:
        raise ConfigError(f"{source}: adaptation needs >= 3 frames, got {frames}")
    check_low_band(cfg.low_band, frames)


def load_config(path, seed: int | None = None, out: str | None = None,
                threads: int = 1) -> PipelineConfig:
    """Parse and validate a config file; flag values override its contents."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    # Every key the file or a flag sets is parsed, whether or not the run reads it.
    given, flags = {section: {} for section in _SCHEMA}, {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            given[section][key] = _parse(f"[{section}] {key} =", text, _SCHEMA[section][key][0])
    for flag, key, value in (("--seed", "seed", seed), ("--out", "out", out)):
        if value is not None:
            given["pipeline"][key] = _parse(flag, str(value), _SCHEMA["pipeline"][key][0])
            flags[key] = flag
    values = {section: {key: default for key, (_, default) in keys.items()
                        if default is not _NOT_SET} | given[section]
              for section, keys in _SCHEMA.items()}

    pipe, jit = values["pipeline"], values["jitter"]
    mode = pipe["mode"]
    if mode not in _MODE_KEYS:
        raise ConfigError(f"[pipeline] mode must be synthetic or ingest, got {mode!r}")
    for owner, keys in _MODE_KEYS.items():
        for section, key in keys:
            if owner != mode and key in given[section]:
                raise ConfigError(f"{flags.get(key, f'[{section}] {key}')} is read only in "
                                  f"{owner} mode; remove it or set [pipeline] mode = {owner}")
            if owner == mode and key not in values[section]:
                raise ConfigError(f"[{section}] {key} is required in {mode} mode")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    world = {}
    if mode == "synthetic":
        if jit["profile"] not in _PROFILES:
            raise ConfigError(f"[jitter] profile must be one of {sorted(_PROFILES)}, "
                              f"got {jit['profile']!r}")
        camera = _build("[camera]", CameraSpec, **values["camera"])
        try:  # synth's own check, at the corner pixel farthest from the centre
            distort_points([(0.0, 0.0)], camera)
        except DomainError as exc:
            raise ConfigError(f"invalid [camera] settings: focal_px = {camera.focal_px}: "
                              f"{exc}") from None
        world = dict(seed=pipe["seed"], frames=pipe["frames"], camera=camera, **values["scene"],
                     jitter=_build("[jitter]", JitterSpec,
                                   **jit | {"profile": _PROFILES[jit["profile"]],
                                            "seed": pipe["seed"] + 1}))
    adapt = None
    if pipe["adaptation"]:
        adapt = _build("[losses]/[adapt]", AdaptParams, **values["losses"], **values["adapt"])
    cfg = PipelineConfig(mode=mode, out=pipe["out"], threads=threads,
                         flow=_build("[flow]", HSParams, **values["flow"]), adapt=adapt,
                         low_band=values["metrics"]["low_band"], **world, **values["ingest"])
    check_frame_count(cfg, cfg.frames, "[pipeline] frames")
    return cfg
