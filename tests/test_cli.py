"""Tests for config parsing and the pipeline CLI."""

import configparser
import dataclasses
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rectiflow import ConfigError, DataError, Direction, Frame, cli, config
from rectiflow.adapt import AdaptParams
from rectiflow.cli import main
from rectiflow.config import load_config
from rectiflow.interflow import HSParams, read_flo
from rectiflow.metrics import spectrum_csv, stability_score
from rectiflow.pnm import mask_to_pgm, write_ppm
from rectiflow.synth import (
    JitterProfile,
    annotations_from_text,
    jitter_signal,
    jittered_face_masks,
)
from rectiflow.trajectory import trajectory_csv, trajectory_of_sequence

_SMALL = """
[pipeline]
mode = synthetic
seed = 5
frames = 8
adaptation = true

[camera]
width = 48
height = 48
focal_px = 40

[scene]
n_lines = 4
n_faces = 1

[jitter]
amplitude = 0.8
profile = white_noise
rotation = true

[flow]
iterations = 25
pyramid_levels = 2

[losses]
mu_mask = 0.1

[adapt]
max_iters = 40

[metrics]
low_band = 2,3
"""


def _write_config(tmp_path, text=_SMALL, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_defaults_and_overrides(tmp_path):
    path = _write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.mode == "synthetic" and cfg.seed == 5 and cfg.frames == 8
    assert cfg.camera.width == 48 and cfg.camera.focal_px == 40.0
    assert cfg.low_band == (2, 3)
    assert cfg.flow.iterations == 25 and cfg.flow.alpha == 15.0
    assert cfg.adapt.lambda_temporal == 10.0
    assert cfg.out is None and cfg.threads == 1
    over = load_config(path, seed=99, out="somewhere", threads=3)
    assert over.seed == 99 and over.out == "somewhere" and over.threads == 3
    assert over.jitter.seed == 100
    assert (cfg.camera.width, cfg.camera.height) == (48, 48)
    assert cfg.jitter.profile is JitterProfile.WHITE_NOISE and cfg.jitter.amplitude == 0.8
    assert cfg.jitter.period_frames == 8
    assert cfg.adapt.max_iters == 40 and cfg.adapt.lambda_temporal == 10.0
    assert cfg.adapt.mu_mask == 0.1
    off = load_config(_write_config(tmp_path, _SMALL.replace("adaptation = true",
                                                             "adaptation = false"), "off.ini"))
    assert off.adapt is None


def test_load_config_rejects_unknown_and_invalid(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")
    cases = {
        "unknown config key": "[pipeline]\nseed = 1\ntypo_key = 2\n",
        "unknown config section": "[pipeline]\nseed = 1\n[nonsense]\nx = 1\n",
        "seed is required": "[pipeline]\nmode = synthetic\n",
        "not a valid integer": "[pipeline]\nseed = abc\n",
        "not a valid boolean": "[pipeline]\nseed = 1\nadaptation = maybe\n",
        "mode must be": "[pipeline]\nseed = 1\nmode = magic\n",
        "profile must be": "[pipeline]\nseed = 1\n[jitter]\nprofile = earthquake\n",
        "low_band": "[pipeline]\nseed = 1\n[metrics]\nlow_band = wide\n",
        r"unknown config section \[schedule\]": "[pipeline]\nseed = 1\n[schedule]\nsteps = 50\n",
        r"unknown config key \[losses\] lambda1": "[pipeline]\nseed = 1\n[losses]\nlambda1 = 1\n",
        r"unknown config key \[adapt\] backtrack_factor":
            "[pipeline]\nseed = 1\n[adapt]\nbacktrack_factor = 0.5\n",
        r"unknown config key \[camera\] principal_x": "[pipeline]\nseed = 1\n[camera]\nprincipal_x = 3\n",
        r"unknown config key \[camera\] principal_y": "[pipeline]\nseed = 1\n[camera]\nprincipal_y = 3\n",
        r"unknown config key \[scene\] seed": "[pipeline]\nseed = 1\n[scene]\nseed = 2\n",
        r"unknown config key \[jitter\] seed": "[pipeline]\nseed = 1\n[jitter]\nseed = 2\n",
    }
    for needle, text in cases.items():
        with pytest.raises(ConfigError, match=needle):
            load_config(_write_config(tmp_path, text, "case.ini"))


def test_shipped_configs_load():
    """sample_config.ini and every benchmark workload pass load_config, and
    keep the config hash that manifest.json and metrics.json record."""
    root = Path(__file__).resolve().parent.parent
    workloads = sorted((root / "bench" / "workloads").glob("*.ini"))
    assert workloads
    pinned = {
        "sample_config.ini": "8a8d409d5ce454cff29aea0f9701944eea4ccf3a2e4c61c3e346ffd8595125bf",
        "sample_clip.ini": "8a8d409d5ce454cff29aea0f9701944eea4ccf3a2e4c61c3e346ffd8595125bf",
        "long_clip.ini": "2a9152b2d17d6fd05e6235f5557242e8b3e41673db4cecb72d6c31467349a26d",
        "hires_flow.ini": "2f6d1db37aeeea5bb7837c8ffe11ab100c9bb65cd1df81668e19544292a0b0f9",
    }
    for path in [root / "sample_config.ini", *workloads]:
        cfg = load_config(path, seed=3)
        assert cfg.mode == "synthetic" and cfg.low_band == (2, 3), path
        assert cli._config_digest(cfg) == pinned[path.name], path


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write_config(tmp_path, "[pipeline]\nseed = 1\ntypo_key = 2\n", "bad.ini")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "typo_key" in capsys.readouterr().err

    ok = _write_config(tmp_path)
    missing = tmp_path / "empty_run"
    assert main(["correct", "--config", str(ok), "--out", str(missing)]) == 3
    err = capsys.readouterr().err
    assert "missing input" in err and str(missing) in err

    assert main(["pipeline", "--config", str(ok)]) == 2
    assert "output directory" in capsys.readouterr().err


def _with_setting(section, key, value, text=_SMALL):
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(text)
    if not ini.has_section(section):
        ini.add_section(section)
    ini[section][key] = value
    text = io.StringIO()
    ini.write(text)
    return text.getvalue()


_BAD_SETTINGS = [
    ("adapt", "step_size", "nan"),
    ("adapt", "step_size", "inf"),
    ("adapt", "max_iters", "0"),
    ("flow", "alpha", "-1"),
    ("flow", "downscale", "1.5"),
    ("jitter", "amplitude", "-1"),
    ("camera", "focal_px", "-5"),
    # The corner of a 48x48 frame lies 33.23 px from the centre, so synth's
    # view angle reaches 90 degrees there unless focal_px exceeds 16.62.
    ("camera", "focal_px", "16"),
    ("metrics", "low_band", "9,2"),
    ("pipeline", "frames", "2"),
    ("losses", "lambda_temporal", "nan"),
    ("losses", "mu_mask", "inf"),
    # Only ingest runs read [ingest]; _SMALL is synthetic.
    ("ingest", "frames_dir", "frames"),
    ("ingest", "masks_dir", "masks"),
    ("ingest", "flows_dir", "flows"),
    ("ingest", "pseudo_dir", "pseudo"),
    ("ingest", "annotations", "annotations.txt"),
    ("pipeline", "seed", "-1"),
    ("scene", "n_lines", "-1"),
    ("scene", "n_faces", "-1"),
]


@pytest.mark.parametrize("section, key, value", _BAD_SETTINGS,
                         ids=[f"{key} = {value}" for _, key, value in _BAD_SETTINGS])
def test_bad_adapt_settings_fail_at_load_and_write_nothing(tmp_path, capsys,
                                                           section, key, value):
    cfg = _write_config(tmp_path, _with_setting(section, key, value))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def _in_ingest_mode(text):
    """text with mode = ingest: the keys only synthetic runs read give way
    to the [ingest] paths that ingest runs require."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(text)
    for section, key in config._MODE_KEYS["synthetic"]:
        ini.remove_option(section, key)
    ini["pipeline"]["mode"] = "ingest"
    ini["ingest"] = {"frames_dir": "in/frames", "pseudo_dir": "in/pseudo"}
    text = io.StringIO()
    ini.write(text)
    return text.getvalue()


_INGEST_PATHS = _in_ingest_mode(_SMALL)
_EMPTY_PATHS = [
    ("out =", _with_setting("pipeline", "out", ""), []),
    ("--out ''", _SMALL, ["--out", ""]),
    *[(f"{key} =", _with_setting("ingest", key, "", _INGEST_PATHS), ["--out", "run"])
      for key in ("frames_dir", "masks_dir", "flows_dir", "pseudo_dir", "annotations")],
    ("--seed -1", _SMALL, ["--out", "run", "--seed", "-1"]),
]


@pytest.mark.parametrize("setting, text, flags", _EMPTY_PATHS,
                         ids=[setting for setting, _, _ in _EMPTY_PATHS])
def test_empty_path_or_negative_seed_flag_fails_at_load(tmp_path, capsys, monkeypatch,
                                                        setting, text, flags):
    """An empty path would mean the working directory; it and a negative
    --seed exit 2 at load, naming the setting, and the directory stays empty."""
    cfg = _write_config(tmp_path, text)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["pipeline", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and setting.split()[0] in err
    assert list(work.iterdir()) == []


def test_focal_length_limit_is_synths_own(tmp_path):
    """A synthetic config loads exactly when synth can render its corners;
    an ingest run never renders, so its config may not set focal_px."""
    for focal, ok in (("16.61", False), ("16.62", True)):
        path = _write_config(tmp_path, _with_setting("camera", "focal_px", focal), "f.ini")
        if ok:
            assert load_config(path).camera.focal_px == float(focal)
        else:
            with pytest.raises(ConfigError, match="focal_px = 16.61: view angle"):
                load_config(path)
    ingest = _with_setting("camera", "focal_px", "5", _INGEST_PATHS)
    with pytest.raises(ConfigError, match=r"\[camera\] focal_px is read only in synthetic mode"):
        load_config(_write_config(tmp_path, ingest, "i.ini"))


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_bytes(b"[pipeline]\nseed = 1\n# caf\xe9\n")
    out = tmp_path / "run"
    assert main(["synth", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: malformed config file {path}" in capsys.readouterr().err
    assert not out.exists()


def test_unset_flow_and_adapt_settings_take_the_class_defaults(tmp_path):
    text = "[pipeline]\nseed = 1\n[metrics]\nlow_band = 2,3\n"
    cfg = load_config(_write_config(tmp_path, text))
    assert cfg.flow == HSParams() and cfg.adapt == AdaptParams()


def test_adapt_settings_are_parsed_with_adaptation_off(tmp_path, capsys):
    """[adapt] values are parsed whatever adaptation says; only their
    range goes unchecked when adaptation is off."""
    off = _with_setting("pipeline", "adaptation", "false")
    ok = _write_config(tmp_path, _with_setting("adapt", "max_iters", "0", off), "ok.ini")
    assert load_config(ok).adapt is None
    bad = _write_config(tmp_path, _with_setting("adapt", "max_iters", "x", off), "bad.ini")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
    assert "[adapt] max_iters = 'x' is not a valid integer" in capsys.readouterr().err
    assert not out.exists()


# One valid value per config key, each different from what _SMALL loads,
# or for an [ingest] key from what _INGEST_PATHS loads.
_KEY_VALUES = {
    ("pipeline", "mode"): "ingest",
    ("pipeline", "seed"): "6",
    ("pipeline", "frames"): "9",
    ("pipeline", "out"): "elsewhere",
    ("pipeline", "adaptation"): "false",
    ("camera", "width"): "40",
    ("camera", "height"): "40",
    ("camera", "focal_px"): "30",
    ("scene", "n_lines"): "3",
    ("scene", "n_faces"): "2",
    ("jitter", "amplitude"): "0.5",
    ("jitter", "profile"): "sinusoidal",
    ("jitter", "period_frames"): "6",
    ("jitter", "rotation"): "false",
    ("flow", "alpha"): "10",
    ("flow", "iterations"): "30",
    ("flow", "pyramid_levels"): "3",
    ("flow", "downscale"): "0.6",
    ("losses", "lambda_temporal"): "5",
    ("losses", "mu_mask"): "0.2",
    ("adapt", "step_size"): "0.5",
    ("adapt", "max_iters"): "20",
    ("adapt", "tol"): "1e-4",
    ("metrics", "low_band"): "3,4",
    ("ingest", "frames_dir"): "frames",
    ("ingest", "masks_dir"): "masks",
    ("ingest", "flows_dir"): "flows",
    ("ingest", "pseudo_dir"): "pseudo",
    ("ingest", "annotations"): "annotations.txt",
}


def test_every_config_key_drives_something(tmp_path):
    """Each key of the schema, set on its own, changes the loaded config.
    [ingest] keys are set on _INGEST_PATHS, an ingest config, the only mode
    that reads them. Each mode requires keys that the other rejects, so
    mode = ingest turns _SMALL into _INGEST_PATHS."""
    assert set(_KEY_VALUES) == {(s, k) for s, keys in config._SCHEMA.items() for k in keys}
    bases = {text: load_config(_write_config(tmp_path, text, "base.ini"))
             for text in (_SMALL, _INGEST_PATHS)}
    for (section, key), value in _KEY_VALUES.items():
        base = _INGEST_PATHS if section == "ingest" else _SMALL
        text = _in_ingest_mode(base) if key == "mode" else _with_setting(section, key, value, base)
        path = _write_config(tmp_path, text, "key.ini")
        assert load_config(path) != bases[base], f"[{section}] {key} = {value}"


def test_ingest_config_may_not_set_what_only_synth_reads(tmp_path, capsys):
    """The synthetic world, its seed and its frame count drive only the
    synth stage, which ingest runs never have: an ingest config or command
    that sets one exits 2, names the first, and writes nothing."""
    text = _INGEST_PATHS
    for section, key, value in (("pipeline", "frames", "3"), ("camera", "width", "40"),
                                ("jitter", "amplitude", "9"), ("scene", "n_lines", "1")):
        text = _with_setting(section, key, value, text)
    out = tmp_path / "run"
    for cfg, flags, name in ((_write_config(tmp_path, text, "world.ini"), [], "[pipeline] frames"),
                             (_write_config(tmp_path, _INGEST_PATHS), ["--seed", "4"], "--seed")):
        assert main(["pipeline", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == (f"config error: {name} is read only in synthetic "
                                           "mode; remove it or set [pipeline] mode = synthetic\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "adapt"])
def test_flow_count_mismatch_fails_before_creating_out(tmp_path, capsys, command):
    """8 pseudo-labels need 7 inter-frame flows; with 5 the stage fails on
    its inputs and leaves no --out behind."""
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path)), "--out", str(src)]) == 0
    flows = tmp_path / "flows"
    flows.mkdir()
    for path in sorted((src / "flows_gt").glob("*_fwd.flo"))[:5]:
        (flows / path.name).write_bytes(path.read_bytes())
    text = ("[pipeline]\nmode = ingest\n[metrics]\nlow_band = 2,3\n[ingest]\n"
            f"frames_dir = {src / 'frames'}\npseudo_dir = {src / 'pseudo'}\nflows_dir = {flows}\n")
    out = tmp_path / "run"
    assert main([command, "--config", str(_write_config(tmp_path, text, "ingest.ini")),
                 "--out", str(out)]) == 3
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def _copy_dir(src: Path, dest: Path) -> Path:
    dest.mkdir()
    for path in src.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


@pytest.mark.parametrize("command", ["correct", "pipeline"])
def test_ingest_count_mismatch_fails_before_writing(tmp_path, capsys, command):
    """9 pseudo-labels for 8 frames: the stage names both counts before it
    parses or writes anything (a pipeline used to write flows/ first)."""
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path)), "--out", str(src)]) == 0
    pseudo = _copy_dir(src / "pseudo", tmp_path / "pseudo")
    (pseudo / "000008.flo").write_bytes((pseudo / "000000.flo").read_bytes())
    cfg = _write_config(tmp_path, _ingest_text(src, pseudo_dir=pseudo), "ingest.ini")
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert (f"9 *.flo files under {pseudo}, but 8 *.ppm files under {src / 'frames'} need 8"
            in capsys.readouterr().err)
    assert not out.exists()

def test_low_band_that_scores_every_bin_or_none_fails_at_load(tmp_path, capsys):
    """A 12-frame synthetic run scores bins 2..6: the default band (2, 6)
    holds all of them, so stability would read 1.0 whatever the motion."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(_SMALL)
    ini["pipeline"]["frames"] = "12"
    ini.remove_section("metrics")
    text = io.StringIO()
    ini.write(text)
    cfg = _write_config(tmp_path, text.getvalue())
    with pytest.raises(ConfigError, match=r"low_band = 2,6 .* 12-frame run"):
        load_config(cfg)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "low_band = 2,6" in capsys.readouterr().err
    assert not out.exists()

    for band, frames, ok in (("2,3", 8, True), ("2,4", 8, False), ("3,4", 8, True),
                             ("5,6", 8, False), ("3,6", 12, True), ("2,6", 16, True)):
        text = _with_setting("metrics", "low_band", band).replace("frames = 8",
                                                                  f"frames = {frames}")
        path = _write_config(tmp_path, text, "band.ini")
        if ok:
            assert load_config(path).low_band == tuple(int(v) for v in band.split(","))
        else:
            with pytest.raises(ConfigError, match=f"{frames}-frame run"):
                load_config(path)


def test_ingest_low_band_that_scores_every_bin_fails_before_writing(tmp_path, capsys):
    """An 8-frame ingest run scores bins 2..4: the default band (2, 6) holds
    all of them, so stability would read 1.0 whatever the motion."""
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path)), "--out", str(src)]) == 0
    text = "[pipeline]\nmode = ingest\n[ingest]\n" + "".join(
        f"{key} = {src / sub}\n" for key, sub in (("frames_dir", "frames"),
                                                  ("flows_dir", "flows_gt"),
                                                  ("pseudo_dir", "pseudo")))
    cfg = _write_config(tmp_path, text, "ingest.ini")
    assert load_config(cfg).low_band == (2, 6)
    for command in ("metrics", "pipeline"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "low_band = 2,6 must hold some but not all of the scored bins 2..4 " \
               "of a 8-frame run" in capsys.readouterr().err
        assert not out.exists()


def test_run_too_short_for_stability_reports_none(tmp_path):
    cfg = _write_config(tmp_path, _SMALL.replace("frames = 8", "frames = 6"))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["before"]["stability"] is None and doc["after"]["stability"] is None
    assert doc["before"]["line_acc"] is not None
    summary = (out / "summary.txt").read_text().splitlines()
    assert "stability_before=none" in summary and "stability_after=none" in summary
    assert not (out / "spectrum.csv").exists()


def test_synth_masks_are_the_jittered_face_masks(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["synth", "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(path)
    ann = annotations_from_text((out / "annotations.txt").read_text())
    masks = jittered_face_masks(ann.faces, cfg.camera, *jitter_signal(cfg.jitter, cfg.frames))
    written = sorted((out / "masks").glob("*.pgm"))
    assert len(written) == len(masks) == cfg.frames
    assert [f.read_bytes() for f in written] == [mask_to_pgm(m) for m in masks]


def test_main_dispatches_through_module_globals(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_metrics", lambda cfg: calls.append(cfg.out))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["metrics", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
    assert calls == [str(out)]
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("command", ["flow", "correct", "pipeline"])
def test_ingest_without_frames_dir_fails_before_creating_out(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, "[pipeline]\nmode = ingest\n")
    out = tmp_path / "out_ing"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "frames_dir" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["correct", "trajectory", "adapt", "metrics", "pipeline"])
def test_ingest_without_pseudo_dir_fails_at_config_and_writes_nothing(tmp_path, capsys, command):
    text = f"[pipeline]\nmode = ingest\n[ingest]\nframes_dir = {tmp_path / 'absent'}\n"
    out = tmp_path / "run"
    assert main([command, "--config", str(_write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "[ingest] pseudo_dir" in capsys.readouterr().err
    assert not out.exists()


_MISSING_INPUTS = [("flow", "frames_dir"), ("correct", "frames_dir"), ("pipeline", "frames_dir"),
                   ("correct", "pseudo_dir"), ("pipeline", "pseudo_dir")]


@pytest.mark.parametrize("command, missing", _MISSING_INPUTS,
                         ids=[f"{c}-{m}" for c, m in _MISSING_INPUTS])
def test_ingest_missing_input_directory_writes_nothing(tmp_path, capsys, command, missing):
    dirs = {"frames_dir": tmp_path / "frames", "pseudo_dir": tmp_path / "pseudo"}
    for path in dirs.values():
        path.mkdir()
    for t in range(2):
        (dirs["frames_dir"] / f"{t:06d}.ppm").write_bytes(write_ppm(Frame(values=np.full((8, 8), 0.5))))
    dirs[missing] = tmp_path / "absent"
    text = "[pipeline]\nmode = ingest\nadaptation = false\n[ingest]\n"
    text += "".join(f"{key} = {path}\n" for key, path in dirs.items())
    out = tmp_path / "run"
    assert main([command, "--config", str(_write_config(tmp_path, text)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "missing input directory" in err and str(tmp_path / "absent") in err
    assert not out.exists()


def _run_dir_bytes(root: Path) -> dict:
    """Every file's bytes, and every directory (as None), under root."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _fresh_env(**extra):
    """Environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_pipeline_output_independent_of_thread_counts(tmp_path):
    """Worker processes and BLAS threads must not change a single output byte."""
    cfg = _write_config(tmp_path)

    def run(name, threads, blas_threads):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rectiflow.cli", "pipeline", "--config", str(cfg),
             "--out", str(out), "--threads", str(threads)],
            env=_fresh_env(OPENBLAS_NUM_THREADS=str(blas_threads)),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return _run_dir_bytes(out)

    base = run("t1_blas1", threads=1, blas_threads=1)
    assert len(base) > 20
    assert run("t2_blas1", threads=2, blas_threads=1) == base
    assert run("t1_blas2", threads=1, blas_threads=2) == base
    # Workers fork from a process whose BLAS thread pool is running.
    assert run("t2_blas2", threads=2, blas_threads=2) == base


def test_worker_count_is_capped_by_jobs_and_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._worker_count(1000, 14) == 2
    assert cli._worker_count(3, 14) == 2
    assert cli._worker_count(8, 1) == 1
    assert cli._worker_count(1, 14) == 1
    assert cli._worker_count(2, 0) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._worker_count(1000, 14) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(1000, 14) == 1


def test_worker_failure_exits_like_a_serial_one(tmp_path, capsys, monkeypatch):
    """A DataError raised in a forked worker (which inherits the patch)
    exits 3 with the serial run's message and leaves no worker behind."""
    def broken(frame_a, frame_b, params):
        raise DataError("flow estimator failed")

    monkeypatch.setattr(cli, "estimate_flow", broken)
    # Two usable CPUs, so --threads 2 forks workers on any machine.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _write_config(tmp_path)
    errors = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 3
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] == "data error: flow estimator failed\n"


def test_serial_run_does_not_import_multiprocessing(tmp_path):
    code = ("import sys; from rectiflow.cli import main; "
            f"code = main(['synth', '--config', {str(_write_config(tmp_path))!r}, "
            f"'--out', {str(tmp_path / 'run')!r}, '--threads', '1']); "
            "print(code, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_pipeline_end_to_end_and_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_b)]) == 0

    summary = dict(
        line.split("=") for line in (out_a / "summary.txt").read_text().splitlines()
    )
    assert float(summary["line_acc_after"]) > float(summary["line_acc_before"])
    assert float(summary["shape_acc_after"]) > float(summary["shape_acc_before"])
    assert float(summary["stability_after"]) >= float(summary["stability_before"])

    doc = json.loads((out_a / "metrics.json").read_text())
    assert doc["before"]["stability"]["avg"] <= 1.0
    assert doc["after"]["line_acc"] == float(summary["line_acc_after"])

    # bench/run.py hashes every top-level entry, so the set is pinned too.
    assert {p.name for p in out_a.iterdir()} == {
        "adapted", "annotations.txt", "corrected", "flows", "flows_gt", "frames", "ideal.ppm",
        "loss_history.csv", "manifest.json", "masks", "metrics.json", "observed.ppm", "pseudo",
        "spectrum.csv", "summary.txt", "trajectory.csv"}
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    hist = (out_a / "loss_history.csv").read_text().splitlines()
    assert hist[0] == "iter,total,spatial,temporal,step_size"
    totals = [float(r.split(",")[1]) for r in hist[1:]]
    assert all(b < a for a, b in zip(totals, totals[1:]))

    traj = (out_a / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,mean_rx,mean_ry,tx,ty,theta"
    assert len(traj) == 1 + 8

    flows = sorted((out_a / "flows").glob("*.flo"))
    assert len(flows) == 2 * 7
    assert flows[0].read_bytes()[:4] == b"PIEH"


def test_seed_override_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    out_a = tmp_path / "s1"
    out_b = tmp_path / "s2"
    assert main(["synth", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(out_b), "--seed", "21"]) == 0
    assert (out_a / "frames/000001.ppm").read_bytes() != (out_b / "frames/000001.ppm").read_bytes()
    assert (out_a / "manifest.json").read_text() != (out_b / "manifest.json").read_text()


def test_pipeline_without_adaptation_matches_cmd_correct(tmp_path):
    text = _SMALL.replace("adaptation = true", "adaptation = false")
    cfg = _write_config(tmp_path, text)
    out_a = tmp_path / "pipe"
    out_b = tmp_path / "manual"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert not (out_a / "adapted").exists()
    doc = json.loads((out_a / "metrics.json").read_text())
    assert doc["after"]["stability"] == doc["before"]["stability"]

    assert main(["synth", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert main(["correct", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert main(["adapt", "--config", str(cfg), "--out", str(out_b)]) == 2
    assert not (out_b / "adapted").exists()
    for rel in sorted(p.name for p in (out_a / "corrected").iterdir()):
        assert (out_a / "corrected" / rel).read_bytes() == (out_b / "corrected" / rel).read_bytes()


def test_ingest_mode_runs_on_exported_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    src = tmp_path / "src"
    assert main(["synth", "--config", str(cfg), "--out", str(src)]) == 0
    ingest_text = f"""
[pipeline]
mode = ingest
[losses]
lambda_temporal = 10
mu_mask = 0.1
[adapt]
max_iters = 40
[metrics]
low_band = 2,3
[ingest]
frames_dir = {src / "frames"}
masks_dir = {src / "masks"}
flows_dir = {src / "flows_gt"}
pseudo_dir = {src / "pseudo"}
annotations = {src / "annotations.txt"}
"""
    ing = _write_config(tmp_path, ingest_text, "ingest.ini")
    out = tmp_path / "ingested"
    assert main(["adapt", "--config", str(ing), "--out", str(out)]) == 0
    assert main(["metrics", "--config", str(ing), "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["after"]["stability"]["avg"] >= doc["before"]["stability"]["avg"]
    assert doc["before"]["provenance"]["mode"] == "ingest"
    assert (out / "adapted" / "000000.flo").is_file()
    assert main(["synth", "--config", str(ing), "--out", str(out)]) == 2


def test_importing_rectiflow_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, rectiflow, rectiflow.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_trajectory_stage_writes_csv_and_spectrum_only(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    before = {p.name for p in out.iterdir()}
    assert main(["trajectory", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} - before == {"trajectory.csv", "spectrum.csv"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config_sha256", "package", "numpy"}




def _ingest_text(src: Path, **keys) -> str:
    """An ingest config on the frames and pseudo-labels of the synthetic
    run under src, plus the given [ingest] keys."""
    keys = {"frames_dir": src / "frames", "pseudo_dir": src / "pseudo", **keys}
    return ("[pipeline]\nmode = ingest\n[losses]\nmu_mask = 0.1\n"
            "[adapt]\nmax_iters = 40\n[metrics]\nlow_band = 2,3\n[ingest]\n"
            + "".join(f"{key} = {path}\n" for key, path in keys.items()))


def test_ingest_pipeline_ignores_a_synthetic_run_under_out(tmp_path):
    """Without flows_dir an ingest run scores its own estimated flows, and
    without annotations it has no line or shape scores, even where --out
    holds another run's flows_gt/ and annotations.txt."""
    small = _write_config(tmp_path)
    src = tmp_path / "src"
    assert main(["synth", "--config", str(small), "--out", str(src)]) == 0
    ing = _write_config(tmp_path, _ingest_text(src), "ingest.ini")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["pipeline", "--config", str(small), "--out", str(reused), "--seed", "99"]) == 0
    for out in (reused, fresh):
        assert main(["pipeline", "--config", str(ing), "--out", str(out)]) == 0
    for name in ("metrics.json", "summary.txt"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    assert "line_acc_before=none" in (fresh / "summary.txt").read_text().splitlines()


@pytest.mark.parametrize("key", ["masks_dir", "flows_dir", "annotations"])
def test_ingest_pipeline_checks_every_named_input_before_writing(tmp_path, capsys, key):
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path)), "--out", str(src)]) == 0
    absent = tmp_path / "absent"
    cfg = _write_config(tmp_path, _ingest_text(src, **{key: absent}), "ingest.ini")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "missing input" in err and f"{absent} ([ingest] {key})" in err
    assert not out.exists()


def test_metrics_of_an_adapting_config_needs_the_adapt_stage(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 3
    assert "run the adapt stage first" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


_EXTRA_INPUTS = [("frames", "000008.ppm", "correct", 9, 8),
                 ("pseudo", "000008.flo", "adapt", 9, 8),
                 ("masks", "000008.pgm", "adapt", 9, 8),
                 ("flows_gt", "000007_fwd.flo", "trajectory", 8, 7)]


@pytest.mark.parametrize("sub, extra, command, found, needed", _EXTRA_INPUTS,
                         ids=[sub for sub, *_ in _EXTRA_INPUTS])
def test_synthetic_stage_rejects_a_count_other_than_frames_implies(tmp_path, capsys, sub, extra,
                                                                    command, found, needed):
    """A synthetic run holds one file per frame, one flow per frame pair:
    a stage that finds another count exits 3 and writes nothing."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    first = sorted((out / sub).iterdir())[0]
    (out / sub / extra).write_bytes(first.read_bytes())
    before = _run_dir_bytes(out)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{found} " in err and f"[pipeline] frames = 8 needs {needed}" in err
    assert _run_dir_bytes(out) == before


def _rerun_equals_fresh(tmp_path, longer: Path, shorter: Path) -> Path:
    """Run the pipeline on longer and then on shorter into one --out, and
    check that it leaves what shorter leaves in a fresh --out."""
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["pipeline", "--config", str(longer), "--out", str(reused)]) == 0
    for out in (reused, fresh):
        assert main(["pipeline", "--config", str(shorter), "--out", str(out)]) == 0
    assert _run_dir_bytes(reused) == _run_dir_bytes(fresh)
    return reused


def test_shorter_synthetic_rerun_equals_a_fresh_run(tmp_path):
    """Each stage replaces its entries whole, so no frame, flow or adapted
    field of a 10-frame run survives an 8-frame rerun."""
    ten = _write_config(tmp_path, _SMALL.replace("frames = 8", "frames = 10"), "ten.ini")
    out = _rerun_equals_fresh(tmp_path, ten, _write_config(tmp_path))
    assert len(list((out / "frames").iterdir())) == 8
    assert len(list((out / "flows").iterdir())) == 2 * 7


def test_shorter_ingest_rerun_equals_a_fresh_run(tmp_path):
    """An ingest run of 8 frames after one of 10: the trajectory stage reads
    the rerun's own 7 estimated flows, not 9 left by the first run."""
    src = tmp_path / "src"
    ten = _write_config(tmp_path, _SMALL.replace("frames = 8", "frames = 10"), "ten.ini")
    assert main(["synth", "--config", str(ten), "--out", str(src)]) == 0
    short = tmp_path / "short"
    for name in ("frames", "pseudo"):
        (short / name).mkdir(parents=True)
        for path in sorted((src / name).iterdir())[:8]:
            (short / name / path.name).write_bytes(path.read_bytes())
    out = _rerun_equals_fresh(tmp_path, _write_config(tmp_path, _ingest_text(src), "long.ini"),
                              _write_config(tmp_path, _ingest_text(short), "short.ini"))
    assert len(list((out / "flows").glob("*_fwd.flo"))) == 7


def test_rerun_too_short_for_a_spectrum_leaves_none(tmp_path):
    six = _write_config(tmp_path, _SMALL.replace("frames = 8", "frames = 6"), "six.ini")
    out = _rerun_equals_fresh(tmp_path, _write_config(tmp_path), six)
    assert not (out / "spectrum.csv").exists()


def test_rerun_without_adaptation_ignores_adapted_flows_under_out(tmp_path):
    """A pipeline with adaptation off removes an earlier run's adapted/ and
    loss_history.csv, so it leaves what it leaves in a fresh --out."""
    off = _write_config(tmp_path, _SMALL.replace("adaptation = true", "adaptation = false"),
                        "off.ini")
    out = _rerun_equals_fresh(tmp_path, _write_config(tmp_path), off)
    assert not (out / "adapted").exists() and not (out / "loss_history.csv").exists()


def test_pipeline_that_fails_midway_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    """An 8-frame pipeline after a 10-frame one fails in its adapt stage:
    --out still holds the 10-frame run alone, manifest included."""
    ten = _write_config(tmp_path, _SMALL.replace("frames = 8", "frames = 10"), "ten.ini")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ten), "--out", str(out)]) == 0
    before = _run_dir_bytes(out)

    def broken(*args):
        raise DataError("adaptation failed")

    monkeypatch.setattr(cli, "adapt_sequence", broken)
    assert main(["pipeline", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "data error: adaptation failed\n"
    assert _run_dir_bytes(out) == before


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_failed_manifest_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, command):
    """The manifest is the last thing a command writes; when it fails, no
    entry its stages wrote reaches --out."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    before = _run_dir_bytes(out)

    def broken(cfg):
        raise DataError("manifest failed")

    monkeypatch.setattr(cli, "_write_manifest", broken)
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 3
    assert capsys.readouterr().err == "data error: manifest failed\n"
    assert _run_dir_bytes(out) == before


def test_pipelines_that_fail_after_a_stage_leave_no_out(tmp_path, capsys):
    """A 1-frame synthetic pipeline fails at its flow stage, after synth
    wrote, and a 2-frame adapting ingest one as a config error once its
    inputs are listed: neither leaves the --out it created."""
    off = _SMALL.replace("adaptation = true", "adaptation = false")
    one = _write_config(tmp_path, off.replace("frames = 8", "frames = 1"), "one.ini")
    two = _write_config(tmp_path, off.replace("frames = 8", "frames = 2"), "two.ini")
    src = tmp_path / "src"
    assert main(["synth", "--config", str(two), "--out", str(src)]) == 0
    ingest = _write_config(tmp_path, _ingest_text(src), "ingest.ini")
    for cfg, code, error in ((one, 3, "data error: "), (ingest, 2, "config error: ")):
        out = tmp_path / f"run_{cfg.stem}"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(error)
        assert not out.exists()


def test_short_adapting_ingest_clip_fails_before_its_flow_stage(tmp_path, capsys, monkeypatch):
    """Adaptation needs 3 frames. An ingest run learns its count when it
    first lists an input, so a 2-frame clip exits 2 before a flow is
    estimated, as a 2-frame synthetic config does at load."""
    two = _SMALL.replace("frames = 8", "frames = 2").replace("adaptation = true",
                                                            "adaptation = false")
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path, two)), "--out", str(src)]) == 0
    calls = []
    monkeypatch.setattr(cli, "estimate_flow", lambda *args: calls.append(args))
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, _ingest_text(src), "ingest.ini")
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: *.ppm files under {src / 'frames'}: "
                                       "adaptation needs >= 3 frames, got 2\n")
    assert calls == [] and not out.exists()


def test_stage_that_fails_midway_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    """synth fails on its fifth encoded image, after its renders and
    flows_gt are written: the earlier run is untouched, nothing is left
    under .partial, and a --out the stage created is removed."""
    cfg = _write_config(tmp_path)
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    before = _run_dir_bytes(out)
    encoded = []

    def failing_write_ppm(frame):
        if len(encoded) == 4:
            raise DataError("encoder failed")
        encoded.append(frame)
        return write_ppm(frame)

    monkeypatch.setattr(cli, "write_ppm", failing_write_ppm)
    for run in (out, fresh):
        encoded.clear()
        assert main(["synth", "--config", str(cfg), "--out", str(run), "--seed", "6"]) == 3
        assert capsys.readouterr().err == "data error: encoder failed\n"
    assert _run_dir_bytes(out) == before
    assert not (out / ".partial").exists() and not fresh.exists()


def test_stale_partial_directory_is_cleared_by_the_next_stage(tmp_path):
    """What a killed stage left under .partial never reaches the run."""
    cfg = _write_config(tmp_path)
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    (out / ".partial" / "frames").mkdir(parents=True)
    (out / ".partial" / "frames" / "000099.ppm").write_bytes(b"left by a killed run")
    for run in (out, fresh):
        assert main(["synth", "--config", str(cfg), "--out", str(run)]) == 0
    assert _run_dir_bytes(out) == _run_dir_bytes(fresh)


_BAD_ANNOTATIONS = {"letter for flag": b"line x 3 1 2\n", "kind alone": b"line\n",
                    "not UTF-8": b"line 0 1 \xff\xfe\n"}


@pytest.mark.parametrize("record", _BAD_ANNOTATIONS.values(), ids=_BAD_ANNOTATIONS.keys())
def test_malformed_annotations_file_is_a_data_error(tmp_path, capsys, record):
    """metrics names the file, exits 3 and writes nothing."""
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path)), "--out", str(src)]) == 0
    bad = tmp_path / "annotations.txt"
    bad.write_bytes((src / "annotations.txt").read_bytes() + record)
    text = _with_setting("pipeline", "adaptation", "false",
                         _ingest_text(src, flows_dir=src / "flows_gt", annotations=bad))
    out = tmp_path / "run"
    assert main(["metrics", "--config", str(_write_config(tmp_path, text, "ingest.ini")),
                 "--out", str(out)]) == 3
    assert f"data error: malformed input file {bad}: " in capsys.readouterr().err
    assert not out.exists()


def _stage_peaks(tmp_path, frames: int) -> dict:
    """tracemalloc peak of each streamed stage on an adapting synthetic run."""
    text = _SMALL.replace("frames = 8", f"frames = {frames}").replace("max_iters = 40",
                                                                       "max_iters = 2")
    path = _write_config(tmp_path, text, f"f{frames}.ini")
    out = tmp_path / f"f{frames}"
    for command in ("synth", "adapt"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(path, out=str(out))
    peaks = {}
    for stage in (cli.cmd_correct, cli.cmd_trajectory, cli.cmd_metrics):
        tracemalloc.start()
        try:
            stage(cfg)
            peaks[stage.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_streamed_stages_hold_one_frame_at_a_time(tmp_path):
    """correct, trajectory and metrics read, warp or fit one frame at a time,
    and correct writes each frame once it is encoded: doubling the clip
    from 8 to 16 frames grows their peak allocation by less than one
    correction field."""
    at8, at16 = _stage_peaks(tmp_path, 8), _stage_peaks(tmp_path, 16)
    field_bytes = 48 * 48 * 2 * 8
    for stage, peak in at8.items():
        assert at16[stage] - peak < field_bytes, (stage, peak, at16[stage])


def test_bad_pseudo_label_mid_run_leaves_out_as_it_was(tmp_path, capsys):
    """A non-finite pseudo-label in the middle of an ingest correct run
    exits 3 before a corrected frame is written."""
    src = tmp_path / "src"
    assert main(["synth", "--config", str(_write_config(tmp_path)), "--out", str(src)]) == 0
    pseudo = _copy_dir(src / "pseudo", tmp_path / "pseudo")
    cfg = _write_config(tmp_path, _ingest_text(src, pseudo_dir=pseudo), "ingest.ini")
    out = tmp_path / "run"
    assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 0
    before = _run_dir_bytes(out)
    blob = bytearray((pseudo / "000004.flo").read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    (pseudo / "000004.flo").write_bytes(bytes(blob))
    assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert _run_dir_bytes(out) == before


@pytest.mark.parametrize("mode", ["synthetic", "ingest"])
def test_streamed_outputs_equal_the_library_path(tmp_path, mode):
    """trajectory.csv, spectrum.csv and the stability of metrics.json equal,
    bit for bit, what trajectory_of_sequence and stability_score give."""
    small = _write_config(tmp_path)
    if mode == "synthetic":
        cfg, out, flows = small, tmp_path / "run", "flows_gt"
    else:
        src = tmp_path / "src"
        assert main(["synth", "--config", str(small), "--out", str(src)]) == 0
        cfg = _write_config(tmp_path, _ingest_text(src), "ingest.ini")
        out, flows = tmp_path / "run", "flows"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    pseudo_root = out if mode == "synthetic" else tmp_path / "src"
    pseudo = [read_flo(p.read_bytes(), Direction.BACKWARD)
              for p in sorted((pseudo_root / "pseudo").glob("*.flo"))]
    adapted = [read_flo(p.read_bytes(), Direction.BACKWARD)
               for p in sorted((out / "adapted").glob("*.flo"))]
    fwd = [read_flo(p.read_bytes(), Direction.FORWARD)
           for p in sorted((out / flows).glob("*_fwd.flo"))]
    series = trajectory_of_sequence(pseudo, fwd)
    assert (out / "trajectory.csv").read_text() == trajectory_csv(series)
    assert (out / "spectrum.csv").read_text() == spectrum_csv(series)
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["before"]["stability"] == dataclasses.asdict(stability_score(series, (2, 3)))
    after = stability_score(trajectory_of_sequence(adapted, fwd), (2, 3))
    assert doc["after"]["stability"] == dataclasses.asdict(after)
