"""Command-line pipeline driver.

Subcommands cover each stage (synthesize, inter-frame flow, per-frame
correction, trajectory, adaptation, metrics) plus an end-to-end pipeline.
Every run is driven by one INI config file; outputs land under one run
directory with a manifest recording the config hash and versions. Exit
codes: 0 success, 2 config error, 3 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import adapt_history_csv, adapt_sequence
from .config import PipelineConfig, check_frame_count, load_config
from .errors import ConfigError, DataError, FormatError, RectiflowError
from .field import Direction, Mask, pull_points_through_flow, warp_backward
from .interflow import estimate_flow, read_flo, write_flo
from .metrics import (
    MIN_STABILITY_FRAMES,
    LineSample,
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
from .trajectory import frame_fits, trajectory_csv, trajectory_steps


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


def _publish(cfg: PipelineConfig, outputs):
    """Stage one stage's outputs in --out/.partial: the only code that writes.

    outputs yields (name, content) pairs, each produced once the one before
    it is written. content is a file's bytes or text, the (file name,
    bytes) pairs of a directory, or None for an entry this run does not
    have, staged as an empty file of that name under .partial/.gone.
    """
    scratch = _run_dir(cfg) / ".partial"
    (scratch / ".gone").mkdir(parents=True, exist_ok=True)
    for name, content in outputs:
        if isinstance(content, str):
            content = content.encode()
        if isinstance(content, bytes):
            (scratch / name).write_bytes(content)
        elif content is None:
            (scratch / ".gone" / name).touch()
        else:
            (scratch / name).mkdir()
            for file_name, blob in content:
                (scratch / name / file_name).write_bytes(blob)


@contextlib.contextmanager
def _one_commit(cfg: PipelineConfig):
    """Change --out once, when the command run inside succeeds: the only
    code that replaces or removes its entries. .partial is cleared first of
    what a killed run left. Then for each name staged in .partial or
    .partial/.gone, the old entry moves into .partial/.old and the new one,
    if any, into place. .partial always goes, and --out too when the
    command created it and failed."""
    root = _run_dir(cfg)
    fresh, done, scratch = not root.exists(), False, root / ".partial"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        yield
        gone = scratch / ".gone"
        names = [p.name for p in scratch.iterdir() if p != gone] + os.listdir(gone)
        (scratch / ".old").mkdir()
        for name in names:
            for src, dest in ((root / name, scratch / ".old" / name), (scratch / name, root / name)):
                if os.path.lexists(src):
                    os.replace(src, dest)
        done = True
    finally:
        shutil.rmtree(root if fresh and not done else scratch, ignore_errors=True)


def _entry(cfg: PipelineConfig, name: str) -> Path:
    """Entry `name` as an earlier stage of this command staged it, else --out's."""
    scratch = _run_dir(cfg) / ".partial"
    staged = os.path.lexists(scratch / name) or os.path.lexists(scratch / ".gone" / name)
    return (scratch if staged else scratch.parent) / name


def _numbered(suffix: str, items):
    """A directory's (file name, content) pairs, one per item from 000000."""
    return ((f"{t:06d}{suffix}", item) for t, item in enumerate(items))


# Each input a stage reads: the glob that lists its files (None: the input
# is one file) and the parser of one file. The parsers look the codecs up
# at call time, so a codec patched onto this module is the one that runs.
_INPUTS = {
    "frames": ("*.ppm", lambda path: read_ppm(path.read_bytes())),
    "pseudo": ("*.flo", lambda path: read_flo(path.read_bytes(), Direction.BACKWARD)),
    "masks": ("*.pgm", lambda path: pgm_to_mask(path.read_bytes())),
    "flows": ("*_fwd.flo", lambda path: read_flo(path.read_bytes(), Direction.FORWARD)),
    "annotations": (None, lambda path: annotations_from_text(path.read_text())),
    "adapted": ("*.flo", lambda path: read_flo(path.read_bytes(), Direction.BACKWARD)),
}

# Where the synth stage writes each input under --out, and the [ingest] key
# that names it in ingest mode.
_SYNTH_PATHS = {"frames": "frames", "pseudo": "pseudo", "masks": "masks",
                "flows": "flows_gt", "annotations": "annotations.txt"}
_INGEST_KEYS = {"frames": "frames_dir", "pseudo": "pseudo_dir", "masks": "masks_dir",
                "flows": "flows_dir", "annotations": "annotations"}


def _input(cfg: PipelineConfig, name: str) -> tuple[Path | None, str]:
    """Where input `name` comes from, and the hint for when it is missing.

    The config decides, never what already lies under --out. A synthetic
    run reads what its synth stage wrote, with the ground-truth flows. An
    ingest run reads the [ingest] paths, and without flows_dir its own
    flow stage's estimates. None means the input is not given: an ingest
    run without masks_dir counts every pixel, and one without annotations
    has no line or shape scores.
    """
    if name == "adapted":
        return _entry(cfg, "adapted"), "run the adapt stage first"
    if cfg.mode == "synthetic":
        return _entry(cfg, _SYNTH_PATHS[name]), "run the synth stage first"
    key = _INGEST_KEYS[name]
    given = getattr(cfg, key)
    if given is not None:
        return Path(given), f"[ingest] {key}"
    if name == "flows":
        return _entry(cfg, "flows"), "run the flow stage first"
    return None, f"[ingest] {key} is not set"


def _files(cfg: PipelineConfig, names) -> list:
    """The files of each named input (None for one not given), checked to
    exist and to agree in number: one per frame, or one per frame pair of
    flows. A synthetic run has [pipeline] frames frames; an ingest run has
    as many as the first listed input implies, and that count must pass
    check_frame_count. Every input is located before any is listed, and
    every count is checked before any file is parsed.
    """
    listed = []
    frames, source = cfg.frames, f"[pipeline] frames = {cfg.frames} needs"
    for name, (path, hint) in [(name, _input(cfg, name)) for name in names]:
        pattern = _INPUTS[name][0]
        if path is None:
            files = None
        elif pattern is None:  # a one-file input
            if not path.is_file():
                raise DataError(f"missing input file: {path} ({hint})")
            files = [path]
        else:
            if not path.is_dir():
                raise DataError(f"missing input directory: {path} ({hint})")
            files = sorted(path.glob(pattern))
            if not files:
                raise DataError(f"missing input: no {pattern} files under {path} ({hint})")
            if frames is None:
                frames = len(files) + (name == "flows")
                check_frame_count(cfg, frames, f"{pattern} files under {path}")
                source = f"{len(files)} {pattern} files under {path} need"
            expected = frames - (name == "flows")
            if len(files) != expected:
                raise DataError(f"{len(files)} {pattern} files under {path}, but "
                                f"{source} {expected}")
        listed.append(files)
    return listed


class _Parsed:
    """The files of one input, each parsed only when iteration reaches it,
    so a stage that streams holds one at a time. Every pass reads anew, and
    a file that does not parse is named in the error."""

    def __init__(self, files: list, parse):
        self.files, self.parse = files, parse

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self):
        for path in self.files:
            try:
                yield self.parse(path)
            except (RectiflowError, UnicodeDecodeError) as exc:
                raise FormatError(f"malformed input file {path}: {exc}") from None


def _stream(cfg: PipelineConfig, *names) -> list:
    """Each named input as a lazy sequence of its parsed files; None for
    one not given. Nothing is parsed until a sequence is iterated."""
    return [None if files is None else _Parsed(files, _INPUTS[name][1])
            for name, files in zip(names, _files(cfg, names))]


def _config_digest(cfg: PipelineConfig) -> str:
    # out/threads do not change computed results and stay out of the hash.
    semantic = {k: v for k, v in vars(cfg).items() if k not in ("out", "threads")}
    blob = repr(sorted(semantic.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(cfg: PipelineConfig):
    doc = {
        "config_sha256": _config_digest(cfg),
        "package": __version__,
        "numpy": np.__version__,
    }
    _publish(cfg, [("manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")])


def cmd_synth(cfg: PipelineConfig):
    """Render the scene, jitter it, and write every ground-truth artifact."""
    if cfg.mode != "synthetic":
        raise ConfigError("the synth stage requires [pipeline] mode = synthetic")
    cam, n = cfg.camera, cfg.frames

    def outputs():
        scene = default_scene(cam, n_lines=cfg.n_lines, n_faces=cfg.n_faces, seed=cfg.seed)
        (ideal, _), (observed, ann) = _parallel_map(
            lambda distorted: render_scene(scene, cam, distorted=distorted), (False, True),
            cfg.threads)
        yield "ideal.ppm", write_ppm(ideal)
        yield "observed.ppm", write_ppm(observed)
        yield "annotations.txt", annotations_to_text(ann)
        if n >= 2:
            frames, fwd = apply_jitter([observed] * n, cfg.jitter)
            dx, dy, th = jitter_signal(cfg.jitter, n)
        else:
            frames, fwd, (dx, dy, th) = [observed], None, [np.zeros(1)] * 3
        yield "flows_gt", None if fwd is None else _numbered("_fwd.flo", map(write_flo, fwd))
        yield "frames", _numbered(".ppm", map(write_ppm, frames))
        yield "pseudo", _numbered(".flo", [write_flo(stereographic_correction_flow(cam))] * n)
        masks = jittered_face_masks(ann.faces, cam, dx, dy, th)
        yield "masks", _numbered(".pgm", map(mask_to_pgm, masks))

    _publish(cfg, outputs())


def cmd_flow(cfg: PipelineConfig):
    """Estimate forward and backward inter-frame flows for every pair."""
    frames = list(*_stream(cfg, "frames"))
    if len(frames) < 2:
        raise DataError(f"flow estimation needs >= 2 frames, got {len(frames)}")

    # One job per pair and direction: job 2t is pair t's forward flow and
    # job 2t + 1 its backward flow, so the workers share equal jobs.
    jobs = [ab for a, b in zip(frames[:-1], frames[1:]) for ab in ((a, b), (b, a))]
    blobs = _parallel_map(lambda ab: write_flo(estimate_flow(*ab, cfg.flow)), jobs, cfg.threads)
    _publish(cfg, [("flows", [*_numbered("_fwd.flo", blobs[0::2]),
                              *_numbered("_bwd.flo", blobs[1::2])])])


def cmd_correct(cfg: PipelineConfig):
    """Warp every frame by its pseudo-label correction flow."""
    frames, pseudo = _stream(cfg, "frames", "pseudo")
    corrected = (write_ppm(warp_backward(frame, f)) for frame, f in zip(frames, pseudo))
    _publish(cfg, [("corrected", _numbered(".ppm", corrected))])


def cmd_trajectory(cfg: PipelineConfig):
    """Derive the correction trajectory; emit its CSV and spectrum."""
    fits = frame_fits(trajectory_steps(*_stream(cfg, "pseudo", "flows")))
    spectrum = spectrum_csv(fits) if len(fits) >= MIN_STABILITY_FRAMES else None
    _publish(cfg, [("trajectory.csv", trajectory_csv(fits)), ("spectrum.csv", spectrum)])


def cmd_adapt(cfg: PipelineConfig):
    """Smooth the correction flows against their pseudo-labels."""
    if cfg.adapt is None:
        raise ConfigError("the adapt stage requires [pipeline] adaptation = true")
    pseudo, fwd, masks = _stream(cfg, "pseudo", "flows", "masks")
    pseudo, fwd = list(pseudo), list(fwd)
    if masks is None:
        masks = [Mask(values=np.ones(pseudo[0].shape, dtype=np.uint8))] * len(pseudo)
    adapted, history = adapt_sequence(pseudo, list(masks), fwd, cfg.adapt)
    _publish(cfg, [("adapted", _numbered(".flo", map(write_flo, adapted))),
                   ("loss_history.csv", adapt_history_csv(history))])


def _annotation_scores(anns, pseudo):
    """(line, shape) scores before and after pseudo-label 0 corrects the
    annotated points; the other pseudo-labels are never read."""
    if anns is None:
        return [(None, None)] * 2
    [ann] = anns
    pseudo0 = next(iter(pseudo))
    lines = [line.points_image for line in ann.lines if not line.out_of_frame]
    faces = [face for face in ann.faces if not face.out_of_frame]
    scores = []
    for move in (lambda points: points, lambda points: pull_points_through_flow(pseudo0, points)):
        shapes = [shape_acc(face.landmarks_ideal, move(face.landmarks_image)) for face in faces]
        scores.append((line_acc([LineSample(points=move(p)) for p in lines]) if lines else None,
                       float(np.mean(shapes)) if shapes else None))
    return scores


def _metric_documents(cfg: PipelineConfig) -> dict:
    names = ("pseudo", "flows", "annotations") + (("adapted",) if cfg.adapt is not None else ())
    pseudo, fwd, ann, *adapted = _stream(cfg, *names)
    (line_b, shape_b), (line_a, shape_a) = _annotation_scores(ann, pseudo)
    stability = [None]
    if len(pseudo) >= MIN_STABILITY_FRAMES:
        stability = [stability_score(frame_fits(trajectory_steps(fields, fwd)), cfg.low_band)
                     for fields in (pseudo, *adapted)]
    stab_before, stab_after = stability[0], stability[-1]
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
    doc = _metric_documents(cfg)
    _publish(cfg, [("metrics.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")])
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
    cmd_flow(cfg)
    cmd_correct(cfg)
    cmd_trajectory(cfg)
    if cfg.adapt is not None:
        cmd_adapt(cfg)
    else:
        _publish(cfg, [("adapted", None), ("loss_history.csv", None)])
    doc = cmd_metrics(cfg)
    _publish(cfg, [("summary.txt", _summary_text(doc))])


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
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes (forked) for the flow estimates and "
                            "the synth renders; 1 runs everything in this process")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out,
                          threads=args.threads)
        with _one_commit(cfg):
            globals()[f"cmd_{args.command}"](cfg)
            _write_manifest(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RectiflowError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
