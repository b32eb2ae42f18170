"""Tests for config parsing and the pipeline CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from rectiflow import ConfigError
from rectiflow.cli import main
from rectiflow.config import build_adapt_params, build_camera, build_jitter, load_config
from rectiflow.synth import JitterProfile

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
    assert cfg.width == 48 and cfg.focal_px == 40.0
    assert cfg.low_band == (2, 3)
    assert cfg.hs_iterations == 25 and cfg.hs_alpha == 15.0
    assert cfg.lambda_temporal == 10.0
    assert cfg.out is None and cfg.threads == 1
    over = load_config(path, seed=99, out="somewhere", threads=3)
    assert over.seed == 99 and over.out == "somewhere" and over.threads == 3
    assert over.scene_seed == 99 and over.jitter_seed == 100
    cam = build_camera(cfg)
    assert (cam.width, cam.height) == (48, 48)
    jit = build_jitter(cfg)
    assert jit.profile is JitterProfile.WHITE_NOISE and jit.amplitude == 0.8
    params = build_adapt_params(cfg)
    assert params.max_iters == 40 and params.lambda_temporal == 10.0
    assert params.mu_mask == 0.1


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
        "set together": "[pipeline]\nseed = 1\n[camera]\nprincipal_x = 3\n",
        "low_band": "[pipeline]\nseed = 1\n[metrics]\nlow_band = wide\n",
    }
    for needle, text in cases.items():
        with pytest.raises(ConfigError, match=needle):
            load_config(_write_config(tmp_path, text, "case.ini"))


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


@pytest.mark.parametrize("setting", ["step_size = nan", "step_size = inf", "max_iters = 0"])
def test_bad_adapt_settings_fail_at_load_and_write_nothing(tmp_path, capsys, setting):
    cfg = _write_config(tmp_path, _SMALL.replace("max_iters = 40", setting))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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
    for rel in sorted(p.name for p in (out_a / "corrected").iterdir()):
        assert (out_a / "corrected" / rel).read_bytes() == (out_b / "corrected" / rel).read_bytes()


def test_ingest_mode_runs_on_exported_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    src = tmp_path / "src"
    assert main(["synth", "--config", str(cfg), "--out", str(src)]) == 0
    ingest_text = f"""
[pipeline]
mode = ingest
seed = 5
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
