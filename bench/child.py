"""One benchmark child: a fresh interpreter that runs the pipeline once.

Usage:
    python3 child.py SPAWNED RESULT probe
    python3 child.py SPAWNED RESULT run|trace PIPELINE_ARGS...

SPAWNED is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s covers interpreter start
and the numpy/scipy/rectiflow imports. `probe` stops after set-up and
records the environment. `run` times one `rectiflow.cli.main` call;
`trace` does the same with every traced function wrapped. The child
writes one JSON document to RESULT and exits 0 unless it could not.
"""

import sys
import time

SPAWNED = float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from rectiflow.cli import main  # noqa: E402

SETUP_S = time.monotonic() - SPAWNED

_EPE_MARGIN = 4  # border pixels left out of the endpoint error, where clamping biases flows


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _read_flo(path: Path) -> np.ndarray:
    data = path.read_bytes()
    w, h = np.frombuffer(data[4:12], dtype="<i4")
    return np.frombuffer(data[12:], dtype="<f4").reshape(h, w, 2).astype(np.float64)


def flow_epe_px(run_dir: Path) -> float | None:
    """Mean interior endpoint error of the estimated forward flows against
    the ground truth, over all pairs; None when either side is absent."""
    errors = []
    for est in sorted((run_dir / "flows").glob("*_fwd.flo")):
        gt = run_dir / "flows_gt" / est.name
        if not gt.is_file():
            return None
        d = _read_flo(est) - _read_flo(gt)
        m = _EPE_MARGIN
        errors.append(np.sqrt(np.sum(d * d, axis=-1))[m:-m, m:-m].mean())
    return float(np.mean(errors)) if errors else None


def _trace_summary(tracer) -> dict:
    return {
        "spans": tracer.summary(),
        "missing": tracer.missing,
        "installed": sorted(tracer.installed),
        "adapt_objective_evals": tracer.count_under("losses.loss_video", "adapt.adapt_sequence"),
        "adapt_gradient_evals": tracer.count_under("losses.grad_video", "adapt.adapt_sequence"),
    }


def run(mode: str, argv: list[str]) -> dict:
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = main(argv)
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    # ru_maxrss is in KiB on Linux.
    result = {"exit_code": code, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": after.ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = _trace_summary(tracer)
    if code == 0:
        result["flow_epe_px"] = flow_epe_px(Path(argv[argv.index("--out") + 1]))
    return result


if __name__ == "__main__":
    result_path, mode = Path(sys.argv[2]), sys.argv[3]
    if mode == "probe":
        doc = {"env": _environment()}
    else:
        doc = run(mode, sys.argv[4:])
    doc["setup_s"] = SETUP_S
    result_path.write_text(json.dumps(doc))
