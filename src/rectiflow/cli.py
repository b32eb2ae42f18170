"""Command-line pipeline driver.

Subcommands cover each stage (synthesize, inter-frame flow, per-frame
correction, trajectory, adaptation, metrics) plus an end-to-end pipeline.
Every run is driven by one INI config file; outputs land under one run
directory with a manifest recording the config hash and versions. Exit
codes: 0 success, 2 config error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import adapt_history_csv, adapt_sequence
from .config import PipelineConfig, load_config
from .errors import ConfigError, DataError, RectiflowError
from .field import Direction, FlowField, Mask, pull_points_through_flow, warp_backward
from .interflow import estimate_flow, read_flo, write_flo
from .metrics import (
    MIN_STABILITY_FRAMES,
    LineSample,
    check_low_band,
    line_acc,
    shape_acc,
    spectrum_csv,
    stability_score,
)
from .pnm import mask_to_pgm, pgm_to_mask, read_ppm, write_ppm
from .synth import (
    annotations_from_text,
    annotations_to_text,
    apply_jitter,
    default_scene,
    jitter_signal,
    jittered_face_masks,
    render_scene,
    stereographic_correction_flow,
)
from .trajectory import trajectory_csv, trajectory_of_sequence


# The job function and its inputs inside a forked worker, set by
# _init_worker there; the parent process never assigns them.
_worker_jobs = None


def _init_worker(fn, items):
    global _worker_jobs
    _worker_jobs = (fn, items)


def _run_job(index: int):
    fn, items = _worker_jobs
    return fn(items[index])


def _worker_count(threads: int, jobs: int) -> int:
    """Workers worth starting: at most one per job and per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, jobs, cpus))


def _parallel_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on up to `threads` forked worker processes.

    Numpy releases the GIL too briefly on these arrays for threads to
    overlap, so jobs run in processes. They fork rather than spawn
    because a spawned worker re-imports numpy and the package, which
    costs what it saves; the executor forks every worker before it
    starts its own thread. A worker inherits fn and items through the
    fork, so only job indices and results are pickled, and fn may be a
    closure. Results come back in index order, so they do not depend on
    the worker count.
    """
    items = list(items)
    workers = _worker_count(threads, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    # Imported here so that serial runs never load multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(fn, items))
    try:
        return list(pool.map(_run_job, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)


def _run_dir(cfg: PipelineConfig) -> Path:
    if cfg.out is None:
        raise ConfigError("output directory required: set [pipeline] out or pass --out")
    return Path(cfg.out)


def _out_root(cfg: PipelineConfig) -> Path:
    # Stages call this only once their inputs are read, so a run that
    # fails on its inputs leaves no --out behind.
    root = _run_dir(cfg)
    root.mkdir(parents=True, exist_ok=True)
    return root


def _require_dir(path: Path, hint: str) -> Path:
    if not path.is_dir():
        raise DataError(f"missing input directory: {path} ({hint})")
    return path


def _read_frames(dirpath: Path, hint: str):
    _require_dir(dirpath, hint)
    files = sorted(dirpath.glob("*.ppm"))
    if not files:
        raise DataError(f"missing input: no .ppm frames under {dirpath} ({hint})")
    return [read_ppm(f.read_bytes()) for f in files]


def _read_flo_dir(dirpath: Path, pattern: str, direction: Direction, hint: str):
    _require_dir(dirpath, hint)
    files = sorted(dirpath.glob(pattern))
    if not files:
        raise DataError(f"missing input: no {pattern} files under {dirpath} ({hint})")
    return [read_flo(f.read_bytes(), direction) for f in files]


def _frames_dir(cfg: PipelineConfig) -> Path:
    if cfg.mode == "ingest":
        if cfg.frames_dir is None:
            raise ConfigError("[ingest] frames_dir is required in ingest mode")
        return Path(cfg.frames_dir)
    return _run_dir(cfg) / "frames"


def _pseudo_dir(cfg: PipelineConfig) -> tuple[Path, str]:
    """Directory of the pseudo-label flows and the hint for when it is missing."""
    if cfg.mode == "ingest":
        if cfg.pseudo_dir is None:
            raise ConfigError("[ingest] pseudo_dir is required in ingest mode")
        return Path(cfg.pseudo_dir), "pseudo-label correction flows"
    return _run_dir(cfg) / "pseudo", "run the synth stage first"


def _pseudo_flows(cfg: PipelineConfig):
    dirpath, hint = _pseudo_dir(cfg)
    return _read_flo_dir(dirpath, "*.flo", Direction.BACKWARD, hint)


def _forward_flows(cfg: PipelineConfig, root: Path):
    """True inter-frame flows when available, estimated ones otherwise."""
    if cfg.mode == "ingest" and cfg.flows_dir is not None:
        return _read_flo_dir(Path(cfg.flows_dir), "*_fwd.flo", Direction.FORWARD,
                             "inter-frame forward flows")
    gt = root / "flows_gt"
    if gt.is_dir() and any(gt.glob("*_fwd.flo")):
        return _read_flo_dir(gt, "*_fwd.flo", Direction.FORWARD, "ground-truth flows")
    return _read_flo_dir(root / "flows", "*_fwd.flo", Direction.FORWARD,
                         "run the flow stage first")


def _masks(cfg: PipelineConfig, root: Path, n: int, dims):
    if cfg.mode == "ingest":
        if cfg.masks_dir is None:
            ones = Mask(values=np.ones(dims, dtype=np.uint8))
            return [ones] * n
        dirpath = _require_dir(Path(cfg.masks_dir), "face masks")
    else:
        dirpath = _require_dir(root / "masks", "run the synth stage first")
    files = sorted(dirpath.glob("*.pgm"))
    if not files:
        raise DataError(f"missing input: no .pgm masks under {dirpath}")
    return [pgm_to_mask(f.read_bytes()) for f in files]


def _config_digest(cfg: PipelineConfig) -> str:
    # out/threads do not change computed results and stay out of the hash.
    semantic = {k: v for k, v in vars(cfg).items() if k not in ("out", "threads")}
    blob = repr(sorted(semantic.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(cfg: PipelineConfig, root: Path):
    doc = {
        "config_sha256": _config_digest(cfg),
        "package": __version__,
        "numpy": np.__version__,
    }
    (root / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_synth(cfg: PipelineConfig):
    """Render the scene, jitter it, and write every ground-truth artifact."""
    if cfg.mode != "synthetic":
        raise ConfigError("the synth stage requires [pipeline] mode = synthetic")
    root = _out_root(cfg)
    cam = cfg.camera
    scene = default_scene(cam, n_lines=cfg.n_lines, n_faces=cfg.n_faces, seed=cfg.seed)
    (ideal, _), (observed, ann) = _parallel_map(
        lambda distorted: render_scene(scene, cam, distorted=distorted), (False, True),
        cfg.threads)
    (root / "ideal.ppm").write_bytes(write_ppm(ideal))
    (root / "observed.ppm").write_bytes(write_ppm(observed))
    (root / "annotations.txt").write_text(annotations_to_text(ann))

    n = cfg.frames
    if n >= 2:
        frames, fwd = apply_jitter([observed] * n, cfg.jitter)
        dx, dy, th = jitter_signal(cfg.jitter, n)
        gt_dir = root / "flows_gt"
        gt_dir.mkdir(exist_ok=True)
        for t, f in enumerate(fwd):
            (gt_dir / f"{t:06d}_fwd.flo").write_bytes(write_flo(f))
    else:
        frames = [observed]
        dx = dy = th = np.zeros(1)

    frames_dir = root / "frames"
    frames_dir.mkdir(exist_ok=True)
    for t, frame in enumerate(frames):
        (frames_dir / f"{t:06d}.ppm").write_bytes(write_ppm(frame))

    pseudo_dir = root / "pseudo"
    pseudo_dir.mkdir(exist_ok=True)
    pseudo_blob = write_flo(stereographic_correction_flow(cam))
    for t in range(n):
        (pseudo_dir / f"{t:06d}.flo").write_bytes(pseudo_blob)

    masks_dir = root / "masks"
    masks_dir.mkdir(exist_ok=True)
    for t, mask in enumerate(jittered_face_masks(ann.faces, cam, dx, dy, th)):
        (masks_dir / f"{t:06d}.pgm").write_bytes(mask_to_pgm(mask))


def cmd_flow(cfg: PipelineConfig):
    """Estimate forward and backward inter-frame flows for every pair."""
    frames = _read_frames(_frames_dir(cfg), "frame sequence")
    if len(frames) < 2:
        raise DataError(f"flow estimation needs >= 2 frames, got {len(frames)}")
    root = _out_root(cfg)

    # One job per pair and direction: job 2t is pair t's forward flow and
    # job 2t + 1 its backward flow, so the workers share equal jobs.
    jobs = [ab for a, b in zip(frames[:-1], frames[1:]) for ab in ((a, b), (b, a))]
    blobs = _parallel_map(lambda ab: write_flo(estimate_flow(*ab, cfg.flow)), jobs, cfg.threads)
    flows_dir = root / "flows"
    flows_dir.mkdir(exist_ok=True)
    for t in range(len(frames) - 1):
        (flows_dir / f"{t:06d}_fwd.flo").write_bytes(blobs[2 * t])
        (flows_dir / f"{t:06d}_bwd.flo").write_bytes(blobs[2 * t + 1])


def cmd_correct(cfg: PipelineConfig):
    """Warp every frame by its pseudo-label correction flow."""
    frames_dir = _frames_dir(cfg)
    _pseudo_dir(cfg)  # a missing setting fails before any input is read
    frames = _read_frames(frames_dir, "frame sequence")
    pseudo = _pseudo_flows(cfg)
    if len(pseudo) != len(frames):
        raise DataError(
            f"{len(frames)} frames but {len(pseudo)} pseudo-label flows"
        )
    root = _out_root(cfg)
    corrected = [write_ppm(warp_backward(f, p)) for f, p in zip(frames, pseudo)]
    out_dir = root / "corrected"
    out_dir.mkdir(exist_ok=True)
    for t, blob in enumerate(corrected):
        (out_dir / f"{t:06d}.ppm").write_bytes(blob)


def cmd_trajectory(cfg: PipelineConfig):
    """Derive the correction trajectory; emit its CSV and spectrum."""
    pseudo = _pseudo_flows(cfg)
    fwd = _forward_flows(cfg, _run_dir(cfg))
    series = trajectory_of_sequence(pseudo, fwd)
    root = _out_root(cfg)
    (root / "trajectory.csv").write_text(trajectory_csv(series))
    if series.n_frames >= MIN_STABILITY_FRAMES:
        (root / "spectrum.csv").write_text(spectrum_csv(series))


def cmd_adapt(cfg: PipelineConfig):
    """Smooth the correction flows against their pseudo-labels."""
    if cfg.adapt is None:
        raise ConfigError("the adapt stage requires [pipeline] adaptation = true")
    pseudo = _pseudo_flows(cfg)
    fwd = _forward_flows(cfg, _run_dir(cfg))
    masks = _masks(cfg, _run_dir(cfg), len(pseudo), pseudo[0].shape)
    if len(masks) != len(pseudo):
        raise DataError(f"{len(pseudo)} flows but {len(masks)} masks")
    adapted, history = adapt_sequence(pseudo, masks, fwd, cfg.adapt)
    root = _out_root(cfg)
    out_dir = root / "adapted"
    out_dir.mkdir(exist_ok=True)
    for t, f in enumerate(adapted):
        (out_dir / f"{t:06d}.flo").write_bytes(write_flo(f))
    (root / "loss_history.csv").write_text(adapt_history_csv(history))


def _annotation_scores(cfg: PipelineConfig, root: Path, pseudo0: FlowField):
    path = Path(cfg.annotations) if cfg.mode == "ingest" and cfg.annotations \
        else root / "annotations.txt"
    if not path.is_file():
        return None, None, None, None
    ann = annotations_from_text(path.read_text())
    lines_obs, lines_corr = [], []
    for line in ann.lines:
        if line.out_of_frame:
            continue
        lines_obs.append(LineSample(points=line.points_image))
        pulled = pull_points_through_flow(pseudo0, line.points_image)
        lines_corr.append(LineSample(points=pulled))
    line_before = line_acc(lines_obs) if lines_obs else None
    line_after = line_acc(lines_corr) if lines_corr else None
    shapes_before, shapes_after = [], []
    for face in ann.faces:
        if face.out_of_frame:
            continue
        shapes_before.append(shape_acc(face.landmarks_ideal, face.landmarks_image))
        pulled = pull_points_through_flow(pseudo0, face.landmarks_image)
        shapes_after.append(shape_acc(face.landmarks_ideal, pulled))
    shape_before = float(np.mean(shapes_before)) if shapes_before else None
    shape_after = float(np.mean(shapes_after)) if shapes_after else None
    return line_before, line_after, shape_before, shape_after


def _metric_documents(cfg: PipelineConfig, root: Path) -> dict:
    pseudo = _pseudo_flows(cfg)
    check_low_band(cfg.low_band, len(pseudo))
    fwd = _forward_flows(cfg, root)
    line_b, line_a, shape_b, shape_a = _annotation_scores(cfg, root, pseudo[0])
    stab_before = stab_after = None
    if len(pseudo) >= MIN_STABILITY_FRAMES:
        stab_before = stability_score(trajectory_of_sequence(pseudo, fwd), cfg.low_band)
        adapted_dir = root / "adapted"
        if adapted_dir.is_dir() and any(adapted_dir.glob("*.flo")):
            adapted = _read_flo_dir(adapted_dir, "*.flo", Direction.BACKWARD, "adapted flows")
            stab_after = stability_score(trajectory_of_sequence(adapted, fwd), cfg.low_band)
        else:
            stab_after = stab_before
    provenance = {
        "mode": cfg.mode,
        "frames": str(len(pseudo)),
        "config_sha256": _config_digest(cfg),
    }

    def record(line, shape, stability):
        return {"line_acc": line, "shape_acc": shape, "provenance": provenance,
                "stability": None if stability is None else dataclasses.asdict(stability)}

    return {"before": record(line_b, shape_b, stab_before),
            "after": record(line_a, shape_a, stab_after)}


def cmd_metrics(cfg: PipelineConfig) -> dict:
    """Score the run: line/shape before vs after correction, stability
    before vs after adaptation."""
    doc = _metric_documents(cfg, _run_dir(cfg))
    (_out_root(cfg) / "metrics.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def _summary_text(doc: dict) -> str:
    def fmt(v):
        return "none" if v is None else repr(v)

    before, after = doc["before"], doc["after"]
    sb = before["stability"]
    sa = after["stability"]
    rows = [
        f"line_acc_before={fmt(before['line_acc'])}",
        f"line_acc_after={fmt(after['line_acc'])}",
        f"shape_acc_before={fmt(before['shape_acc'])}",
        f"shape_acc_after={fmt(after['shape_acc'])}",
        f"stability_before={fmt(None if sb is None else sb['avg'])}",
        f"stability_after={fmt(None if sa is None else sa['avg'])}",
    ]
    return "\n".join(rows) + "\n"


def cmd_pipeline(cfg: PipelineConfig):
    """Run every stage in order and write a before/after summary."""
    if cfg.mode == "synthetic":
        cmd_synth(cfg)
    else:
        # cmd_flow writes --out, so the inputs of the later stages are
        # checked before it runs.
        _frames_dir(cfg)
        pseudo_dir = _require_dir(*_pseudo_dir(cfg))
        check_low_band(cfg.low_band, len(list(pseudo_dir.glob("*.flo"))))
    cmd_flow(cfg)
    cmd_correct(cfg)
    cmd_trajectory(cfg)
    if cfg.adapt is not None:
        cmd_adapt(cfg)
    doc = cmd_metrics(cfg)
    (_out_root(cfg) / "summary.txt").write_text(_summary_text(doc))


# Each name runs cmd_<name>, looked up in the module globals at call time,
# so a function patched onto this module is the one that runs.
_COMMANDS = ("synth", "flow", "correct", "trajectory", "adapt", "metrics", "pipeline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rectiflow",
        description="Flow-based wide-angle video correction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=globals()[f"cmd_{name}"].__doc__)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (forked) for the flow estimates and "
                            "the synth renders; 1 runs everything in this process")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out,
                          threads=args.threads)
        globals()[f"cmd_{args.command}"](cfg)
        # Every command resolved the output directory, so it exists now.
        _write_manifest(cfg, Path(cfg.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RectiflowError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
