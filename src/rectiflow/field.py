"""Dense raster and flow-field primitives.

Typed pixel grids, frames, binary masks, and two-channel displacement
fields, plus the bilinear resampling kernel, backward warping, and
flow-at-displaced-coordinates composition everything else is built on.

Conventions: pixel centers sit at integer coordinates, origin top-left,
x grows rightward, y grows downward. A displacement is (u, v) = (dx, dy).
All arithmetic is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, DirectionError, ShapeError


class Direction(Enum):
    """Which way a flow field points.

    BACKWARD fields are indexed by output pixels and give where in the
    source to sample; FORWARD fields are indexed by source pixels and give
    where that content lands next.
    """

    BACKWARD = "backward"
    FORWARD = "forward"


class BorderPolicy(Enum):
    """How resampling treats coordinates outside the pixel grid.

    CLAMP clips sample positions into [0, w-1] x [0, h-1]; ZERO treats the
    field as zero beyond the grid. Every resampling call names its policy.
    """

    CLAMP = "clamp"
    ZERO = "zero"


def _as_field(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite values")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Pixel-coordinate grid: x[r, c] == c and y[r, c] == r."""

    height: int
    width: int
    x: np.ndarray
    y: np.ndarray


def make_grid(height: int, width: int) -> Grid:
    """Build the integer pixel grid for a height x width raster."""
    if height < 1 or width < 1:
        raise ShapeError(f"grid dimensions must be >= 1, got {height}x{width}")
    x, y = np.meshgrid(
        np.arange(width, dtype=np.float64),
        np.arange(height, dtype=np.float64),
    )
    return Grid(height=height, width=width, x=_freeze(x), y=_freeze(y))


@dataclass(frozen=True)
class FlowField:
    """Dense two-channel displacement field with a direction tag.

    u and v are (H, W) float64 arrays of per-pixel displacement in pixels.
    The direction tag is fixed at construction; operations that care about
    it check it and raise DirectionError on misuse.
    """

    u: np.ndarray
    v: np.ndarray
    direction: Direction

    def __post_init__(self):
        u = _as_field(self.u, "flow u")
        v = _as_field(self.v, "flow v")
        if u.ndim != 2 or u.shape != v.shape:
            raise ShapeError(f"flow channels must be matching 2-D arrays, got {u.shape} / {v.shape}")
        if not isinstance(self.direction, Direction):
            raise DirectionError(f"direction must be a Direction, got {self.direction!r}")
        object.__setattr__(self, "u", _freeze(u))
        object.__setattr__(self, "v", _freeze(v))

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape

    @property
    def uv(self) -> np.ndarray:
        """Stacked (H, W, 2) copy of the field, channel order (u, v)."""
        return np.stack([self.u, self.v], axis=-1)

    @classmethod
    def from_uv(cls, uv, direction: Direction) -> "FlowField":
        uv = np.asarray(uv, dtype=np.float64)
        if uv.ndim != 3 or uv.shape[2] != 2:
            raise ShapeError(f"expected (H, W, 2) array, got {uv.shape}")
        return cls(u=uv[..., 0], v=uv[..., 1], direction=direction)

    @classmethod
    def zeros(cls, height: int, width: int, direction: Direction) -> "FlowField":
        z = np.zeros((height, width))
        return cls(u=z, v=z.copy(), direction=direction)


@dataclass(frozen=True)
class Frame:
    """Raster image with 1 or 3 channels and values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = _as_field(self.values, "frame values")
        if v.ndim == 2:
            pass
        elif v.ndim == 3 and v.shape[2] in (1, 3):
            if v.shape[2] == 1:
                v = v[..., 0]
        else:
            raise ShapeError(f"frame must be (H, W) or (H, W, 3), got {v.shape}")
        object.__setattr__(self, "values", _freeze(np.clip(v, 0.0, 1.0)))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.values.ndim == 2 else self.values.shape[2]

    def channel_stack(self) -> np.ndarray:
        """Values as (H, W, C) regardless of channel count."""
        v = self.values
        return v[..., None] if v.ndim == 2 else v

    def gray(self) -> np.ndarray:
        """Luma as (H, W) using Rec. 601 weights for color frames."""
        v = self.values
        if v.ndim == 2:
            return np.array(v)
        return 0.299 * v[..., 0] + 0.587 * v[..., 1] + 0.114 * v[..., 2]


@dataclass(frozen=True)
class Mask:
    """Binary per-pixel mask; values are exactly 0 or 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {v.shape}")
        v = v.astype(np.uint8)
        if not np.all((v == 0) | (v == 1)):
            raise DataError("mask values must be 0 or 1")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def as_float(self) -> np.ndarray:
        return self.values.astype(np.float64)


def _bilinear(fields, xs, ys, policy: BorderPolicy, with_grad: bool = False) -> list:
    """Bilinear samples of same-shape 2-D rasters at one set of points.

    All fields share one set of corner indices and weights, and gather
    their corners through flat indices. Returns one value array per field
    or, with_grad, one (value, d/dx, d/dy) triple per field. For the ZERO
    policy corner contributions are masked by per-corner validity; for
    CLAMP the fractional parts are zeroed outside the grid and the
    derivatives are zero wherever a coordinate was pinned, so they are
    exact for the sampled values. Inputs are not validated here.
    """
    h, w = fields[0].shape
    if policy is BorderPolicy.CLAMP:
        xq = np.clip(xs, 0.0, w - 1.0)
        yq = np.clip(ys, 0.0, h - 1.0)
        x0 = np.floor(xq)
        y0 = np.floor(yq)
        ax = xq - x0
        ay = yq - y0
        x0 = x0.astype(np.intp)
        y0 = y0.astype(np.intp)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        valid = None
    else:
        x0f = np.floor(xs)
        y0f = np.floor(ys)
        ax = xs - x0f
        ay = ys - y0f
        x0 = x0f.astype(np.intp)
        y0 = y0f.astype(np.intp)
        x1 = x0 + 1
        y1 = y0 + 1
        valid = (
            ((x0 >= 0) & (x0 < w), (y0 >= 0) & (y0 < h)),
            ((x1 >= 0) & (x1 < w), (y1 >= 0) & (y1 < h)),
        )
        x0 = np.clip(x0, 0, w - 1)
        x1 = np.clip(x1, 0, w - 1)
        y0 = np.clip(y0, 0, h - 1)
        y1 = np.clip(y1, 0, h - 1)
    row0 = y0 * w
    row1 = y1 * w
    corners = (row0 + x0, row0 + x1, row1 + x0, row1 + x1)
    bx = 1.0 - ax
    by = 1.0 - ay
    w00, w10, w01, w11 = bx * by, ax * by, bx * ay, ax * ay
    if with_grad and policy is BorderPolicy.CLAMP:
        inside_x = (xs > 0.0) & (xs < w - 1.0)
        inside_y = (ys > 0.0) & (ys < h - 1.0)
    out = []
    for field in fields:
        flat = field.ravel()
        f00, f10, f01, f11 = (flat.take(i) for i in corners)
        if valid is not None:
            (vx0, vy0), (vx1, vy1) = valid
            f00 = np.where(vx0 & vy0, f00, 0.0)
            f10 = np.where(vx1 & vy0, f10, 0.0)
            f01 = np.where(vx0 & vy1, f01, 0.0)
            f11 = np.where(vx1 & vy1, f11, 0.0)
        val = w00 * f00 + w10 * f10 + w01 * f01 + w11 * f11
        if with_grad:
            ddx = by * (f10 - f00) + ay * (f11 - f01)
            ddy = bx * (f01 - f00) + ax * (f11 - f10)
            if policy is BorderPolicy.CLAMP:
                ddx = np.where(inside_x, ddx, 0.0)
                ddy = np.where(inside_y, ddy, 0.0)
            val = (val, ddx, ddy)
        out.append(val)
    return out


def sample_bilinear(field, xs, ys, policy: BorderPolicy) -> np.ndarray:
    """Bilinearly interpolate a single-channel field at (xs, ys).

    CLAMP clips coordinates into the grid; ZERO lets contributions from
    corners outside the grid vanish, so values fade to zero across the
    border and points fully outside return 0.
    """
    field = _as_field(field, "field")
    if field.ndim != 2:
        raise ShapeError(f"field must be 2-D, got shape {field.shape}")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ShapeError("xs and ys must have the same shape")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DataError("sample coordinates must be finite")
    return _bilinear((field,), xs, ys, policy)[0]


def sample_bilinear_with_grad(field, xs, ys, policy: BorderPolicy):
    """Interpolated values plus their derivatives w.r.t. the sample coords.

    Shares the index/weight computation with sample_bilinear so the
    derivatives are exact for the implemented (clamped) interpolant; in
    particular they are zero wherever CLAMP has pinned a coordinate.
    """
    field = _as_field(field, "field")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return _bilinear((field,), xs, ys, policy, with_grad=True)[0]


def warp_backward(image: Frame, flow: FlowField, policy: BorderPolicy = BorderPolicy.CLAMP) -> Frame:
    """Resample an image through a backward flow: out(p) = image(p + flow(p))."""
    if flow.direction is not Direction.BACKWARD:
        raise DirectionError("warp_backward requires a BACKWARD flow")
    if (image.height, image.width) != flow.shape:
        raise ShapeError(
            f"image {image.height}x{image.width} does not match flow {flow.shape[0]}x{flow.shape[1]}"
        )
    grid = make_grid(image.height, image.width)
    xs = grid.x + flow.u
    ys = grid.y + flow.v
    stack = image.channel_stack()
    out = np.empty_like(stack)
    for c in range(stack.shape[2]):
        out[..., c] = sample_bilinear(stack[..., c], xs, ys, policy)
    return Frame(values=out if out.shape[2] > 1 else out[..., 0])


def _disp_channels(disp) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(disp, FlowField):
        return disp.u, disp.v
    d = np.asarray(disp, dtype=np.float64)
    if d.ndim != 3 or d.shape[2] != 2:
        raise ShapeError(f"displacement must be a FlowField or (H, W, 2) array, got {d.shape}")
    return d[..., 0], d[..., 1]


def compose_displaced(field: FlowField, disp, policy: BorderPolicy = BorderPolicy.CLAMP) -> FlowField:
    """Sample a flow field at displaced coordinates: out(p) = field(p + disp(p)).

    Both channels of `field` are sampled at the same displaced position;
    the output keeps the direction tag of `field`.
    """
    du, dv = _disp_channels(disp)
    if du.shape != field.shape:
        raise ShapeError(f"displacement shape {du.shape} does not match field {field.shape}")
    grid = make_grid(*field.shape)
    xs = grid.x + du
    ys = grid.y + dv
    return FlowField(
        u=sample_bilinear(field.u, xs, ys, policy),
        v=sample_bilinear(field.v, xs, ys, policy),
        direction=field.direction,
    )


def invert_flow_field(flow: FlowField, iterations: int = 40) -> FlowField:
    """Numerically invert a backward flow by fixed-point iteration.

    Finds the forward field Ff with q + Ff(q) = p wherever p + flow(p) = q,
    evaluated on the pixel grid. Converges for smooth flows whose Jacobian
    stays below 1 in magnitude, which covers the correction flows used here.
    """
    if flow.direction is not Direction.BACKWARD:
        raise DirectionError("invert_flow_field expects a BACKWARD flow")
    grid = make_grid(*flow.shape)
    fu = np.zeros(flow.shape)
    fv = np.zeros(flow.shape)
    for _ in range(iterations):
        xs = grid.x + fu
        ys = grid.y + fv
        fu = -sample_bilinear(flow.u, xs, ys, BorderPolicy.CLAMP)
        fv = -sample_bilinear(flow.v, xs, ys, BorderPolicy.CLAMP)
    return FlowField(u=fu, v=fv, direction=Direction.FORWARD)


def pull_points_through_flow(flow: FlowField, points, iterations: int = 40) -> np.ndarray:
    """Map source-image points to output coordinates under a backward flow.

    Solves p + flow(p) = q for p given each query q by fixed-point
    iteration p <- q - flow(p), starting at p = q. Points are (N, 2) as
    (x, y). This is how annotation geometry follows a warp_backward call.
    """
    if flow.direction is not Direction.BACKWARD:
        raise DirectionError("pull_points_through_flow expects a BACKWARD flow")
    q = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px = q[:, 0].copy()
    py = q[:, 1].copy()
    for _ in range(iterations):
        px = q[:, 0] - sample_bilinear(flow.u, px, py, BorderPolicy.CLAMP)
        py = q[:, 1] - sample_bilinear(flow.v, px, py, BorderPolicy.CLAMP)
    return np.stack([px, py], axis=1)
