"""Dense raster and flow-field primitives.

Typed pixel grids, frames, binary masks, and two-channel displacement
fields, plus the bilinear resampling kernel, backward warping, and
flow-at-displaced-coordinates composition everything else is built on.
Resampling has one border rule: sample positions are clamped into the
grid, so content beyond the border repeats the nearest edge value. The
kernel gathers the four corners of each clamped cell through one flat
index into the field padded by one edge row and column.

Conventions: pixel centers sit at integer coordinates, origin top-left,
x grows rightward, y grows downward. A displacement is (u, v) = (dx, dy).
All arithmetic is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, DirectionError, ShapeError

_PULL_ITERATIONS = 40


class Direction(Enum):
    """Which way a flow field points.

    BACKWARD fields are indexed by output pixels and give where in the
    source to sample; FORWARD fields are indexed by source pixels and give
    where that content lands next.
    """

    BACKWARD = "backward"
    FORWARD = "forward"


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


def _bilinear(fields, xs, ys, with_grad: bool = False) -> list:
    """Bilinear samples of same-shape 2-D rasters at one set of points.

    Sample positions are clamped into [0, w-1] x [0, h-1], so a point
    beyond the grid takes the value at the nearest border position. All
    fields share one stencil: the clamped cell's weights and one flat
    index i00 of its top-left corner in the field edge-padded by one row
    and column, whose pad holds what a clamped x0+1 or y0+1 would read.
    The corners are the reads at i00, i00+1, i00+w+1 and i00+w+2; every
    index is in range, so mode="clip" gathers never clip (and are not
    buffered). Returns one value array per field or, with_grad, one
    (value, d/dx, d/dy) triple per field. The derivatives are zero
    wherever a coordinate was pinned, so they are exact for the sampled
    values. Inputs are not validated here.
    """
    h, w = fields[0].shape
    shape = np.shape(xs)
    xs = np.reshape(xs, -1)  # 1-D, so 0-d points can be written in place too
    ys = np.reshape(ys, -1)
    ax = np.clip(xs, 0.0, w - 1.0)
    ay = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(ax)
    i00 = np.floor(ay)
    ax -= x0
    ay -= i00
    i00 *= w + 1
    i00 += x0
    i00 = i00.astype(np.intp)
    bx = np.subtract(1.0, ax, out=x0)
    by = 1.0 - ay
    w00, w10, w01, w11 = bx * by, ax * by, bx * ay, ax * ay
    pinned = ((xs <= 0.0) | (xs >= w - 1.0), (ys <= 0.0) | (ys >= h - 1.0)) if with_grad else ()
    padded = np.empty((h + 1, w + 1))
    flat = padded.ravel()
    tmp, *corners = (np.empty_like(ax) for _ in range(4))
    out = []
    for field in fields:
        padded[:h, :w] = field
        padded[:h, w] = field[:, w - 1]
        padded[h] = padded[h - 1]
        f00 = flat.take(i00)
        f10, f01, f11 = (flat[k:].take(i00, out=c, mode="clip")
                         for k, c in zip((1, w + 1, w + 2), corners))
        parts = [f00]
        if with_grad:
            # by*(f10 - f00) + ay*(f11 - f01), then bx*(f01 - f00) + ax*(f11 - f10).
            for a, b, c, d, wa, wc, pin in ((f10, f00, f11, f01, by, ay, pinned[0]),
                                            (f01, f00, f11, f10, bx, ax, pinned[1])):
                slope = a - b
                slope *= wa
                slope += np.multiply(np.subtract(c, d, out=tmp), wc, out=tmp)
                np.copyto(slope, 0.0, where=pin)
                parts.append(slope)
        f00 *= w00
        f00 += np.multiply(f10, w10, out=f10)
        f00 += np.multiply(f01, w01, out=f01)
        f00 += np.multiply(f11, w11, out=f11)
        parts = tuple(a.reshape(shape)[()] for a in parts)  # [()]: 0-d back to scalar
        out.append(parts if with_grad else parts[0])
    return out


def _sample_args(field, xs, ys):
    field = _as_field(field, "field")
    if field.ndim != 2:
        raise ShapeError(f"field must be 2-D, got shape {field.shape}")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ShapeError("xs and ys must have the same shape")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DataError("sample coordinates must be finite")
    return field, xs, ys


def sample_bilinear(field, xs, ys) -> np.ndarray:
    """Bilinearly interpolate a single-channel field at (xs, ys).

    Coordinates are clamped into the grid, so points outside it take the
    value at the nearest border position.
    """
    field, xs, ys = _sample_args(field, xs, ys)
    return _bilinear((field,), xs, ys)[0]


def sample_bilinear_with_grad(field, xs, ys):
    """Interpolated values plus their derivatives w.r.t. the sample coords.

    Validates like sample_bilinear and shares its kernel, so the
    derivatives are exact for the clamped interpolant; in particular they
    are zero wherever clamping has pinned a coordinate.
    """
    field, xs, ys = _sample_args(field, xs, ys)
    return _bilinear((field,), xs, ys, with_grad=True)[0]


def warp_backward(image: Frame, flow: FlowField) -> Frame:
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
    out = np.stack(_bilinear([stack[..., c] for c in range(stack.shape[2])], xs, ys), axis=-1)
    return Frame(values=out if out.shape[2] > 1 else out[..., 0])


def _disp_channels(disp) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(disp, FlowField):
        return disp.u, disp.v
    d = np.asarray(disp, dtype=np.float64)
    if d.ndim != 3 or d.shape[2] != 2:
        raise ShapeError(f"displacement must be a FlowField or (H, W, 2) array, got {d.shape}")
    return d[..., 0], d[..., 1]


def compose_displaced(field: FlowField, disp) -> FlowField:
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
        u=sample_bilinear(field.u, xs, ys),
        v=sample_bilinear(field.v, xs, ys),
        direction=field.direction,
    )


def pull_points_through_flow(flow: FlowField, points) -> np.ndarray:
    """Map source-image points to output coordinates under a backward flow.

    Solves p + flow(p) = q for p given each query q by fixed-point
    iteration p <- q - flow(p), starting at p = q, for _PULL_ITERATIONS
    rounds. Points are (N, 2) as
    (x, y). This is how annotation geometry follows a warp_backward call.
    """
    if flow.direction is not Direction.BACKWARD:
        raise DirectionError("pull_points_through_flow expects a BACKWARD flow")
    q = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px = q[:, 0].copy()
    py = q[:, 1].copy()
    for _ in range(_PULL_ITERATIONS):
        px = q[:, 0] - sample_bilinear(flow.u, px, py)
        py = q[:, 1] - sample_bilinear(flow.v, px, py)
    return np.stack([px, py], axis=1)
