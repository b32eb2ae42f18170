"""Fast smoke test of the benchmark harness on shrunk copies of its workloads.

Run from the repository root:
    python3 -m pytest -q bench/test_smoke.py
"""

import configparser
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer

sys.path.insert(0, str(run.ROOT / "src"))

# Each workload keeps its shape (adaptation, threads, frame count class)
# at a size that runs in about a second.
_SHRINK = {
    "sample_clip": {"camera": {"width": "32", "height": "32", "focal_px": "20"},
                    "flow": {"iterations": "5", "pyramid_levels": "2"},
                    "adapt": {"max_iters": "5"}},
    "long_clip": {"pipeline": {"frames": "16"},
                  "camera": {"width": "24", "height": "24", "focal_px": "20"},
                  "flow": {"iterations": "5"},
                  "adapt": {"max_iters": "5"}},
    "hires_flow": {"camera": {"width": "48", "height": "48", "focal_px": "24"},
                   "flow": {"iterations": "5", "pyramid_levels": "2"}},
}
_SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _shrunk(tmp_path: Path, workload: str) -> Path:
    ini = configparser.ConfigParser()
    ini.read(run.BENCH / "workloads" / f"{workload}.ini")
    for section, values in _SHRINK[workload].items():
        ini[section].update(values)
    path = tmp_path / f"{workload}.ini"
    with path.open("w") as f:
        ini.write(f)
    return path


def _result(capsys, workload, config, tmp_path, trace):
    code = run.benchmark(workload, config, seed=3, seconds=0.1, trace=trace,
                         work=tmp_path / "work")
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert not (tmp_path / "work").exists()
    return json.loads(out[-1]), out


@pytest.fixture(autouse=True)
def _one_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", sorted(_SHRINK))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, capsys, workload):
    result, out = _result(capsys, workload, _shrunk(tmp_path, workload), tmp_path, False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == run.MIN_RUNS
    assert set(result["metrics"]) == {m["name"] for m in _SPEC["end_to_end"]}
    for m in _SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    env = json.loads(next(line for line in out if line.startswith("env "))[4:])
    assert env["threads"] == run.WORKLOADS[workload]["threads"]
    assert {"git_head", "nproc", "python", "numpy", "scipy", "blas"} <= set(env)


def test_traced_run_reports_every_per_layer_metric(tmp_path, capsys):
    config = _shrunk(tmp_path, "sample_clip")
    result, _ = _result(capsys, "sample_clip", config, tmp_path, True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _SPEC["per_layer"]}
    assert metrics["adapt.iterations"] == 5
    assert metrics["adapt.objective_evals"] == 1 + metrics["adapt.iterations"] + \
        metrics["adapt.rejected_steps"]
    assert metrics["adapt.gradient_evals"] == metrics["losses.grad_video_calls"]
    # 32x32 and its 16x16 level, 5 sweeps each, for 11 pairs in both directions.
    assert metrics["interflow.pixel_sweeps"] == 22 * 5 * (32 * 32 + 16 * 16)
    assert metrics["cli.adapt_s"] > metrics["adapt.adapt_sequence_s"] > 0


def test_failed_checks_are_counted(tmp_path):
    run_dir = tmp_path / "out"
    run_dir.mkdir()
    (run_dir / "summary.txt").write_text("")
    (run_dir / "loss_history.csv").write_text("iter,total\n0,2.0\n1,2.0\n")
    stab = {"stability": {"avg": 0.5}}
    (run_dir / "metrics.json").write_text(json.dumps({"before": stab, "after": stab}))
    failures, _ = run.check_outputs(run_dir, adapted=True, epe=2.0, epe_ceiling=1.0)
    assert len(failures) == 2  # flat loss history, endpoint error over the ceiling
    (run_dir / "summary.txt").unlink()
    failures, _ = run.check_outputs(run_dir, adapted=True, epe=0.5, epe_ceiling=1.0)
    assert failures == ["missing summary.txt"]


def test_tracer_patches_every_binding_and_reports_missing():
    from rectiflow import field, interflow, trajectory

    original = field.sample_bilinear
    tracer = Tracer()
    tracer.install([
        ("field", "sample_bilinear", "field.sample_bilinear", None),
        ("field", "no_such_kernel", "field.no_such_kernel", None),
    ])
    try:
        assert interflow.sample_bilinear is field.sample_bilinear is not original
        zero = np.zeros((2, 2))
        # trajectory reaches the kernel through field.compose_displaced.
        trajectory.compose_displaced(
            field.FlowField(u=zero, v=zero, direction=field.Direction.FORWARD),
            np.zeros((2, 2, 2)))
    finally:
        tracer.uninstall()
    assert interflow.sample_bilinear is original
    assert tracer.missing == ["field.no_such_kernel"]
    assert tracer.summary()["field.sample_bilinear"]["calls"] == 2


def test_missing_function_is_reported_missing_not_zero():
    trace = {"spans": {}, "installed": ["cli.io.file"], "missing": ["losses.loss_video"],
             "adapt_objective_evals": 0, "adapt_gradient_evals": 0}
    figures, missing = run.layer_metrics(trace, 1.0, {"flow_epe_px": 0.3, "stability_after": 0.5})
    assert {"losses.loss_video_s", "adapt.objective_evals", "adapt.accept_ratio"} <= set(missing)
    assert not set(missing) & set(figures)
    assert figures["cli.io_files"] == 0
