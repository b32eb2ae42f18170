"""Unsupervised spatiotemporal smoothing of per-frame correction flows.

Optimizes the flow fields directly: full-batch gradient descent keeps
each frame's correction close to its pseudo-label (spatial terms) while
flattening the warping trajectory (temporal term). Inter-frame flows are
held fixed. A backtracking line search makes the recorded loss history
strictly decreasing, and the whole run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .field import FlowField, Frame, warp_backward
from .losses import LossWeights, grad_video, loss_video

# Below this trial step the search has stalled in float terms; stop cleanly.
_STEP_FLOOR = 1e-12
_BACKTRACK = 0.5


@dataclass(frozen=True)
class AdaptParams:
    """Optimizer settings for adapt_sequence."""

    lambda_temporal: float = LossWeights.lambda_temporal
    mu_mask: float = LossWeights.mu_mask
    step_size: float = 0.25
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        # The loss weights obey the one LossWeights rule: finite and >= 0.
        LossWeights(lambda_temporal=self.lambda_temporal, mu_mask=self.mu_mask)
        if not (np.isfinite(self.step_size) and self.step_size > 0.0):
            raise DataError(f"step_size must be finite and positive, got {self.step_size}")
        if self.max_iters < 1:
            raise DataError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.tol) and self.tol >= 0.0):
            raise DataError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass(frozen=True)
class AdaptStep:
    """One accepted optimizer state; iteration 0 is the initial point."""

    iteration: int
    total: float
    spatial: float
    temporal: float
    step_size: float


def adapt_history_csv(history: list[AdaptStep]) -> str:
    lines = ["iter,total,spatial,temporal,step_size"]
    for row in history:
        lines.append(
            f"{row.iteration},{row.total!r},{row.spatial!r},"
            f"{row.temporal!r},{row.step_size!r}"
        )
    return "\n".join(lines) + "\n"


def _offset_fields(fields: list[FlowField], delta: np.ndarray) -> list[FlowField]:
    return [
        FlowField(u=f.u + delta[t, ..., 0], v=f.v + delta[t, ..., 1], direction=f.direction)
        for t, f in enumerate(fields)
    ]


def adapt_sequence(
    pseudo_seq,
    masks,
    f_fwd_seq,
    params: AdaptParams = AdaptParams(),
) -> tuple[list[FlowField], list[AdaptStep]]:
    """Smooth a correction-flow sequence against its pseudo-labels.

    Starts at the pseudo-labels and descends the combined objective
    (spatial fidelity + mask-weighted edge term + lambda * temporal
    smoothness) with backtracking: a trial step is halved until the loss
    decreases, and the accepted step is doubled for the next iteration.
    Stops at max_iters, at a relative decrease below tol, at an exactly
    zero gradient, or when no decreasing step above the float floor
    exists. Returns the smoothed fields and the accepted-state history.
    """
    pseudo_seq = list(pseudo_seq)
    masks = list(masks)
    f_fwd_seq = list(f_fwd_seq)
    if len(pseudo_seq) < 3:
        raise ShapeError(f"adaptation needs >= 3 frames, got {len(pseudo_seq)}")
    lw = LossWeights(
        lambda_temporal=params.lambda_temporal, mu_mask=params.mu_mask
    )
    current = list(pseudo_seq)
    report = loss_video(current, pseudo_seq, masks, f_fwd_seq, lw)
    history = [
        AdaptStep(
            iteration=0,
            total=report.total,
            spatial=report.terms["spatial"],
            temporal=report.terms["temporal"],
            step_size=params.step_size,
        )
    ]
    step = params.step_size
    for it in range(1, params.max_iters + 1):
        grad = grad_video(current, pseudo_seq, masks, f_fwd_seq, lw)
        if not np.any(grad):
            break
        accepted = None
        while step >= _STEP_FLOOR:
            candidate = _offset_fields(current, -step * grad)
            cand_report = loss_video(candidate, pseudo_seq, masks, f_fwd_seq, lw)
            if cand_report.total < report.total:
                accepted = (candidate, cand_report)
                break
            step *= _BACKTRACK
        # Released before grad_video builds the next one, so that the two
        # gradients are never held at once.
        del grad
        if accepted is None:
            break
        previous_total = report.total
        current, report = accepted
        history.append(
            AdaptStep(
                iteration=it,
                total=report.total,
                spatial=report.terms["spatial"],
                temporal=report.terms["temporal"],
                step_size=step,
            )
        )
        if previous_total - report.total <= params.tol * abs(previous_total):
            break
        step *= 2.0
    return current, history


def correct_sequence(frames, f_seq) -> list[Frame]:
    """Warp every frame by its own backward correction flow."""
    frames = list(frames)
    f_seq = list(f_seq)
    if len(frames) != len(f_seq):
        raise ShapeError(
            f"{len(frames)} frames but {len(f_seq)} correction flows"
        )
    return [warp_backward(frame, f) for frame, f in zip(frames, f_seq)]
