"""Flow-field toolkit for wide-angle portrait correction.

Subpackages cover raster/flow primitives (field), lens geometry and a
synthetic oracle world (synth), variational inter-frame flow (interflow),
the correction loss family (losses), correction-trajectory algebra
(trajectory), diffusion-style flow sampling (ddim), temporal adaptation
(adapt), quality metrics (metrics), and the command-line pipeline (cli).

The names most workflows touch are re-exported here; everything else
stays importable from its submodule.
"""

from .adapt import AdaptParams, AdaptStep, adapt_sequence, correct_sequence
from .ddim import (
    Conditioning,
    Schedule,
    assemble_condition,
    ddim_sample,
    ddim_step,
    make_schedule,
    oracle_denoiser,
    sampling_timesteps,
    stub_denoiser,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DirectionError,
    DomainError,
    FormatError,
    RectiflowError,
    ShapeError,
)
from .field import (
    Direction,
    FlowField,
    Frame,
    Grid,
    Mask,
    compose_displaced,
    make_grid,
    pull_points_through_flow,
    sample_bilinear,
    sample_bilinear_with_grad,
    warp_backward,
)
from .interflow import HSParams, estimate_flow, read_flo, reverse_pair, write_flo
from .losses import (
    LossWeights,
    grad_video,
    loss_flow,
    loss_image,
    loss_mask,
    loss_photo,
    loss_temporal,
    loss_video,
)
from .metrics import (
    LineSample,
    StabilityReport,
    line_acc,
    shape_acc,
    stability_score,
)
from .synth import (
    CameraSpec,
    JitterProfile,
    JitterSpec,
    SceneSpec,
    apply_jitter,
    default_scene,
    distort_points,
    face_mask,
    render_scene,
    stereographic_correction_flow,
    undistort_points,
)
from .trajectory import (
    TrajectorySeries,
    accumulate,
    fit_similarity,
    residual_backward,
    trajectory_of_sequence,
)

__all__ = [
    "AdaptParams",
    "AdaptStep",
    "CameraSpec",
    "Conditioning",
    "ConfigError",
    "ContractError",
    "DataError",
    "Direction",
    "DirectionError",
    "DomainError",
    "FlowField",
    "FormatError",
    "Frame",
    "Grid",
    "HSParams",
    "JitterProfile",
    "JitterSpec",
    "LineSample",
    "LossWeights",
    "Mask",
    "RectiflowError",
    "Schedule",
    "SceneSpec",
    "ShapeError",
    "StabilityReport",
    "TrajectorySeries",
    "accumulate",
    "adapt_sequence",
    "apply_jitter",
    "assemble_condition",
    "compose_displaced",
    "correct_sequence",
    "ddim_sample",
    "ddim_step",
    "default_scene",
    "distort_points",
    "estimate_flow",
    "face_mask",
    "fit_similarity",
    "grad_video",
    "line_acc",
    "loss_flow",
    "loss_image",
    "loss_mask",
    "loss_photo",
    "loss_temporal",
    "loss_video",
    "make_grid",
    "make_schedule",
    "oracle_denoiser",
    "pull_points_through_flow",
    "read_flo",
    "render_scene",
    "residual_backward",
    "reverse_pair",
    "sample_bilinear",
    "sample_bilinear_with_grad",
    "sampling_timesteps",
    "shape_acc",
    "stability_score",
    "stereographic_correction_flow",
    "stub_denoiser",
    "trajectory_of_sequence",
    "undistort_points",
    "warp_backward",
    "write_flo",
]

__version__ = "0.1.0"
