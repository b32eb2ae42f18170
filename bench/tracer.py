"""In-memory span tracer that wraps rectiflow's public functions from outside.

Each traced function object is replaced in every ``rectiflow.*`` module
that binds it, because ``from .field import sample_bilinear`` copies the
name into the importing module. Spans are kept in memory and summarised
once, after the run: a span's self time is its duration minus the part of
its interval that its child spans cover. A worker-thread span with no open
parent in its own thread is parented to the main thread's innermost open
span, which is where the pool was entered.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import sys
import threading
import time


def _points(args, kwargs, result):
    """Computed count: the number of sampled coordinates."""
    return getattr(result, "size", 1)


def _pyramid_shapes(h: int, w: int, levels: int, downscale: float) -> list[tuple[int, int]]:
    # Mirrors interflow._pyramid: stop before a level's short side drops below 8.
    shapes = [(h, w)]
    for _ in range(levels - 1):
        ph, pw = shapes[-1]
        if min(ph, pw) * downscale < 8:
            break
        shapes.append((max(4, int(round(ph * downscale))), max(4, int(round(pw * downscale)))))
    return shapes


def _pixel_sweeps(args, kwargs, result):
    """Computed count: sweeps per level times pixels per level, all levels."""
    frame = args[0] if args else kwargs["frame_a"]
    params = args[2] if len(args) > 2 else kwargs.get("params")
    if params is None:
        params = importlib.import_module("rectiflow.interflow").HSParams()
    shapes = _pyramid_shapes(frame.height, frame.width, params.pyramid_levels, params.downscale)
    return params.iterations * sum(h * w for h, w in shapes)


# (module, function, span name, work count computed from the call; None counts 1)
TARGETS = [
    ("cli", "cmd_pipeline", "cli.pipeline", None),
    ("cli", "cmd_synth", "cli.synth", None),
    ("cli", "cmd_flow", "cli.flow", None),
    ("cli", "cmd_correct", "cli.correct", None),
    ("cli", "cmd_trajectory", "cli.trajectory", None),
    ("cli", "cmd_adapt", "cli.adapt", None),
    ("cli", "_metric_documents", "cli.metrics", None),
    ("pnm", "write_ppm", "cli.io.codec", None),
    ("pnm", "read_ppm", "cli.io.codec", None),
    ("pnm", "mask_to_pgm", "cli.io.codec", None),
    ("pnm", "pgm_to_mask", "cli.io.codec", None),
    ("interflow", "write_flo", "cli.io.codec", None),
    ("interflow", "read_flo", "cli.io.codec", None),
    ("synth", "render_scene", "synth.render_scene", None),
    ("synth", "apply_jitter", "synth.apply_jitter", None),
    ("interflow", "estimate_flow", "interflow.estimate_flow", _pixel_sweeps),
    ("field", "sample_bilinear", "field.sample_bilinear", _points),
    ("field", "sample_bilinear_with_grad", "field.sample_bilinear_with_grad", None),
    ("field", "compose_displaced", "field.compose_displaced", None),
    ("field", "warp_backward", "field.warp_backward", None),
    ("trajectory", "trajectory_of_sequence", "trajectory.trajectory_of_sequence", None),
    ("trajectory", "accumulate", "trajectory.accumulate", None),
    ("losses", "loss_video", "losses.loss_video", None),
    ("losses", "grad_video", "losses.grad_video", None),
    ("losses", "sobel", "losses.sobel", None),
    ("losses", "sobel_adjoint", "losses.sobel_adjoint", None),
    ("adapt", "adapt_sequence", "adapt.adapt_sequence", None),
    ("metrics", "stability_score", "metrics.score", None),
    ("metrics", "line_acc", "metrics.score", None),
    ("metrics", "shape_acc", "metrics.score", None),
]

# File reads and writes the pipeline makes through pathlib; the work count
# is the number of bytes (or characters, for text) moved.
PATH_IO = {
    "read_bytes": lambda args, kwargs, result: len(result),
    "read_text": lambda args, kwargs, result: len(result),
    "write_bytes": lambda args, kwargs, result: len(args[1]),
    "write_text": lambda args, kwargs, result: len(args[1]),
}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        # Each span: [name, start, end, parent index, work count].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, work=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with self._lock:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent, 1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if work is not None:
                spans[idx][4] = work(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rectiflow" or n.startswith("rectiflow."))]
        for module_name, attr, name, work in targets:
            fn = getattr(importlib.import_module(f"rectiflow.{module_name}"), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.installed.add(name)
            wrapped = self.wrap(fn, name, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)
        self.installed.add("cli.io.file")
        for attr, work in PATH_IO.items():
            wrapped = self.wrap(getattr(pathlib.Path, attr), "cli.io.file", work)
            self._patch(pathlib.Path, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed work counts."""
        children: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(idx)
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, count) in enumerate(self.spans):
            covered = _covered(start, end, [self.spans[c] for c in children.get(idx, ())])
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - covered
            row["work"] += count
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` that ran inside a span of `ancestor`."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total


def _covered(start: float, end: float, kids: list[list]) -> float:
    """Length of [start, end] covered by the union of the child intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for _, lo, hi, _, _ in sorted(kids, key=lambda s: s[1]):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
