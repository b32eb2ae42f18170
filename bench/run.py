"""Benchmark of the rectiflow pipeline.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is an INI config under bench/workloads/, run through
`rectiflow.cli.main(["pipeline", ...])` with the seed passed as --seed.
This process is a single thread; it starts one fresh interpreter
(bench/child.py) at a time, so set-up time and peak RSS describe one run
alone. First a few probe children only set up; then pipeline children
run until the next one would end after S seconds, at least two of them so
their output digests can be compared. With --trace 1 the pipeline
children alternate between untraced and traced, and the traced ones
supply the per-layer metrics.

Every pipeline run is checked, and a failed check is counted in
`failed`: it is never retried or dropped. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Lines before it give the environment,
every run, the output digest and each metric with its sample count.

End-to-end metrics are timings and memory: wall_s, setup_s, peak_rss_mb.
The error rate is `failed` over `attempted`. Output quality (final adapt
loss, stability after adaptation, estimated-flow endpoint error) is fixed
by the seed's scene and jitter and spreads 15-30 % across seeds, more than
any end-to-end bound allows, so it is reported per layer and guarded per
run by the checks in check_outputs and the digest. adapt.final_loss is 0
on a workload without adaptation.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

# Per workload: --threads, and the estimated-flow endpoint error above which
# a run fails. The ceilings sit well above every seed tried (0.29-0.69 px)
# and well below the mean jitter motion a broken estimator would leave.
WORKLOADS = {
    "sample_clip": {"threads": 1, "epe_ceiling_px": 1.0},
    "long_clip": {"threads": 1, "epe_ceiling_px": 1.0},
    "hires_flow": {"threads": 2, "epe_ceiling_px": 1.5},
}
SETUP_PROBES = 3
MIN_RUNS = 2
DEADLINE_S = 170  # a hung child is killed so the whole run ends within 180 s


def spawn(args: list[str], result: Path, timeout: float) -> tuple[dict | None, str]:
    """Run one child to completion; return its result document and stderr."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), repr(time.monotonic()), str(result), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result.read_text()), proc.stderr


def digest(run_dir: Path) -> tuple[str, dict]:
    """SHA-256 of every output file, overall and per top-level entry."""
    parts = {}
    for entry in sorted(run_dir.iterdir()):
        h = hashlib.sha256()
        files = sorted(entry.rglob("*")) if entry.is_dir() else [entry]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(run_dir)).encode() + b"\0")
                h.update(f.read_bytes())
        parts[entry.name] = h.hexdigest()
    total = hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()
    return total, parts


def check_outputs(run_dir: Path, adapted: bool, epe: float | None,
                  epe_ceiling: float) -> tuple[list[str], dict]:
    """Failures found in one run directory, and its quality figures."""
    failures, quality = [], {"flow_epe_px": epe}
    for name in ("metrics.json", "summary.txt") + (("loss_history.csv",) if adapted else ()):
        if not (run_dir / name).is_file():
            failures.append(f"missing {name}")
    if failures:
        return failures, quality
    doc = json.loads((run_dir / "metrics.json").read_text())
    before, after = doc["before"]["stability"], doc["after"]["stability"]
    if before is None or after is None:
        failures.append("stability not scored")
    else:
        quality["stability_before"] = before["avg"]
        quality["stability_after"] = after["avg"]
        if adapted and after["avg"] < before["avg"]:
            failures.append(f"stability_after {after['avg']} < stability_before {before['avg']}")
    if adapted:
        rows = (run_dir / "loss_history.csv").read_text().split()[1:]
        totals = [float(row.split(",")[1]) for row in rows]
        if not totals or any(b >= a for a, b in zip(totals, totals[1:])):
            failures.append("loss_history totals do not strictly decrease")
        else:
            quality["adapt_iterations"] = len(totals) - 1
            quality["adapt_final_loss"] = totals[-1]
    if epe is None:
        failures.append("flow_epe_px not computable")
    elif epe > epe_ceiling:
        failures.append(f"flow_epe_px {epe:.4f} above ceiling {epe_ceiling}")
    return failures, quality


def timing_line(name: str, values: list[float], unit: str) -> str:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={n}"
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return line + f", p{p:g} {q:.6g} {unit})"
    return line + "; no percentile has 10 samples beyond it)"


def environment(probe_env: dict, threads: int) -> dict:
    try:
        # The ceiling keeps git from searching directories above the checkout.
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_head = head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        git_head = "unknown (git unavailable)"
    return {"git_head": git_head, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "threads": threads, **probe_env}


# Spans whose self time (summed over threads) is reported as <span>_s,
# spans whose call count is reported as <span>_calls, and the pipeline
# stages, whose inclusive time is reported as cli.<stage>_s.
_SELF_S = ["adapt.adapt_sequence", "losses.loss_video", "losses.grad_video", "losses.sobel",
           "losses.sobel_adjoint", "trajectory.trajectory_of_sequence", "trajectory.accumulate",
           "field.sample_bilinear", "field.sample_bilinear_with_grad", "field.compose_displaced",
           "field.warp_backward", "interflow.estimate_flow", "synth.render_scene",
           "synth.apply_jitter", "metrics.score"]
_CALLS = ["losses.loss_video", "losses.grad_video", "trajectory.trajectory_of_sequence",
          "field.sample_bilinear", "interflow.estimate_flow"]
_STAGES = ["synth", "flow", "correct", "trajectory", "adapt", "metrics"]


def _ratio(num, den, scale=1.0):
    return None if num is None or den is None else (scale * num / den if den else 0.0)


def layer_metrics(trace: dict, wall_s: float, quality: dict) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced run, and the names that are missing.

    A figure whose traced functions no longer exist is missing, never 0.
    """
    spans, installed = trace["spans"], set(trace["installed"])

    def take(span: str, key: str):
        return spans.get(span, {}).get(key, 0) if span in installed else None

    m = {f"cli.{stage}_s": take(f"cli.{stage}", "incl_s") for stage in _STAGES}
    m.update({f"{span}_s": take(span, "self_s") for span in _SELF_S})
    m.update({f"{span}_calls": take(span, "calls") for span in _CALLS})
    m["cli.io_s"] = sum(take(span, "self_s") or 0.0 for span in ("cli.io.codec", "cli.io.file"))
    m["cli.io_bytes"] = take("cli.io.file", "work")
    m["cli.io_files"] = take("cli.io.file", "calls")
    m["field.sample_bilinear_points"] = take("field.sample_bilinear", "work")
    m["interflow.pixel_sweeps"] = take("interflow.estimate_flow", "work")
    m["interflow.ns_per_pixel_sweep"] = _ratio(
        m["interflow.estimate_flow_s"], m["interflow.pixel_sweeps"], 1e9)

    iterations = quality.get("adapt_iterations", 0)
    evals = trace["adapt_objective_evals"] if "losses.loss_video" in installed else None
    candidates = None if evals is None else max(evals - 1, 0)  # the first scores the start
    m["adapt.iterations"] = iterations
    m["adapt.objective_evals"] = evals
    m["adapt.gradient_evals"] = (trace["adapt_gradient_evals"]
                                 if "losses.grad_video" in installed else None)
    m["adapt.rejected_steps"] = None if candidates is None else candidates - iterations
    m["adapt.accept_ratio"] = _ratio(iterations, candidates)

    # Output quality, deterministic for the seed; see the module docstring.
    m["adapt.final_loss"] = quality.get("adapt_final_loss", 0.0)
    m["interflow.flow_epe_px"] = quality["flow_epe_px"]
    m["metrics.stability_after"] = quality["stability_after"]
    m["trace.wall_s"] = wall_s
    return {k: v for k, v in m.items() if v is not None}, [k for k, v in m.items() if v is None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rectiflow" / "cli.py").is_file():
        print(f"error: no rectiflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    return benchmark(args.workload, BENCH / "workloads" / f"{args.workload}.ini",
                     args.seed, args.seconds, bool(args.trace), work)


def benchmark(workload: str, config: Path, seed: int, seconds: float, trace: bool,
              work: Path) -> int:
    """Measure one workload for about `seconds` and print its result lines."""
    start = time.monotonic()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        collected = collect(WORKLOADS[workload], config, seed, seconds, trace, start, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if collected is None:
        return 1
    return report(*collected, trace, json.loads((ROOT / "BENCHMARK.json").read_text()))


def collect(wl: dict, config: Path, seed: int, seconds: float, trace: bool, start: float,
            work: Path):
    """Run the probes and the pipeline children; None if a probe failed."""
    ini = configparser.ConfigParser()
    ini.read_string(config.read_text())
    adapted = ini.getboolean("pipeline", "adaptation")
    result = work / "child.json"
    setups, probe_env = [], None
    for _ in range(SETUP_PROBES):
        doc, err = spawn(["probe"], result, DEADLINE_S - (time.monotonic() - start))
        if doc is None:
            print(f"error: set-up probe failed: {err}", file=sys.stderr)
            return None
        setups.append(doc["setup_s"])
        probe_env = doc["env"]
    print("env " + json.dumps(environment(probe_env, wl["threads"]), sort_keys=True))

    runs, longest = [], 0.0
    while len(runs) < MIN_RUNS or time.monotonic() - start + longest <= seconds:
        mode = "trace" if trace and len(runs) % 2 == 1 else "run"
        run_dir = work / f"run{len(runs)}"
        pipeline = ["pipeline", "--config", str(config), "--out", str(run_dir),
                    "--seed", str(seed), "--threads", str(wl["threads"])]
        t0 = time.monotonic()
        doc, err = spawn([mode, *pipeline], result,
                         max(1.0, DEADLINE_S - (time.monotonic() - start)))
        longest = max(longest, time.monotonic() - t0)
        rec = {"run": len(runs), "mode": mode, "failures": [], "quality": {}}
        if doc is None:
            rec["failures"].append(err)
        elif doc["exit_code"] != 0:
            rec["failures"].append(f"pipeline exit {doc['exit_code']}: {err.strip()[-500:]}")
        else:
            rec.update(wall_s=doc["wall_s"], cpu_s=doc["cpu_s"], setup_s=doc["setup_s"],
                       peak_rss_mb=doc["peak_rss_mb"], trace=doc.get("trace"))
            rec["failures"], rec["quality"] = check_outputs(
                run_dir, adapted, doc.get("flow_epe_px"), wl["epe_ceiling_px"])
            rec["digest"], rec["parts"] = digest(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        runs.append(rec)
    return runs, setups


# How each ratio and computed count per layer is formed.
_NOTES = {
    "adapt.accept_ratio": "adapt.iterations accepted of adapt.objective_evals - 1 candidates",
    "interflow.pixel_sweeps": "computed: sweeps x pixels of each pyramid level, per call",
    "interflow.ns_per_pixel_sweep": "interflow.estimate_flow_s over interflow.pixel_sweeps",
    "field.sample_bilinear_points": "computed: sum of coordinate array sizes",
}


def report(runs: list[dict], setups: list[float], trace: bool, spec: dict) -> int:
    """Check digests, print every run and metric, and print the result line."""
    # Outputs must be byte-identical across runs of one workload and seed.
    common = Counter(r["digest"] for r in runs if "digest" in r).most_common(1)
    for r in runs:
        if "digest" in r and r["digest"] != common[0][0]:
            r["failures"].append(f"digest {r['digest'][:16]} differs from {common[0][0][:16]}")
    for r in runs:
        print("run " + json.dumps({k: v for k, v in r.items() if k not in ("trace", "parts")},
                                  sort_keys=True))
    if common:
        parts = next(r["parts"] for r in runs if r.get("digest") == common[0][0])
        print("digest " + json.dumps({"sha256": common[0][0], "parts": parts}, sort_keys=True))
    ok = [r for r in runs if not r["failures"]]
    failed = len(runs) - len(ok)
    untraced = [r for r in ok if r["mode"] == "run"]
    traced = [r for r in ok if r["mode"] == "trace"]
    if not untraced or (trace and not traced):
        print(f"error: {failed} of {len(runs)} pipeline runs failed, too many to measure",
              file=sys.stderr)
        return 1

    values = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": setups + [r["setup_s"] for r in runs if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    print(f"error_rate: {failed / len(runs):.6g} ({failed} failed of {len(runs)} attempted)")
    for name, vals in values.items():
        print(timing_line(name, vals, "MiB" if name == "peak_rss_mb" else "s"))
    quality = ok[0]["quality"]
    for name, value in sorted(quality.items()):
        print(f"{name}: {value!r} (deterministic for the seed)")

    if trace:
        per_run, missing = [], []
        for r in traced:
            figures, missing = layer_metrics(r["trace"], r["wall_s"], quality)
            per_run.append(figures)
        figures = {k: statistics.median(f[k] for f in per_run) for k in per_run[0]}
        wall = figures["trace.wall_s"]
        figures["trace.overhead_s"] = wall - statistics.median(values["wall_s"])
        stages = sum(figures.get(f"cli.{s}_s", 0.0) for s in _STAGES)
        print(f"trace: medians of {len(traced)} traced runs; stages sum to {stages:.4f} s of "
              f"{wall:.4f} s traced wall; overhead {figures['trace.overhead_s']:.4f} s; "
              "_s figures other than cli.<stage>_s are self time summed over threads")
        if missing:
            print("missing " + json.dumps({"functions": traced[-1]["trace"]["missing"],
                                           "metrics": missing}))
        names = spec["per_layer"]
        for m in names:
            if m["name"] in figures:
                value = figures[m["name"]]
                note = _NOTES.get(m["name"], "")
                if m["unit"] == "s" and wall > 0:
                    note = f"{100 * value / wall:.1f} % of traced wall"
                print(f"{m['name']}: {value:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    else:
        figures = {name: statistics.median(vals) for name, vals in values.items()}
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in names if m["name"] in figures}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
