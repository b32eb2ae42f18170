"""Inter-frame optical flow: coarse-to-fine variational estimation plus
bit-exact Middlebury `.flo` serialization.

The estimator minimizes the classic quadratic brightness-constancy plus
smoothness energy on a 4-neighbor grid (Horn & Schunck). Updates are
red-black block coordinate descent: pixels of one color, (i+j) even or
odd, decouple given the other color, so each half-sweep solves its
subproblem exactly and the energy of the level's linearization never
increases. A half-sweep computes only the pixels it keeps: each color
is the union of two stride-2 sub-lattices, and each sub-lattice of the
flow is stored as its own contiguous array. Coarse-to-fine warping
handles motions beyond the linear range. `estimate_flow` tracks no
energy; `estimate_flow_with_energy` also returns the finest level's
energy after every sweep.

The pyramid needs numpy only: each level is the previous one smoothed by
a sigma = 1 Gaussian (`_gaussian`) and resized bilinearly with corners
mapped to corners (`_zoom`), both with a nearest-edge border. Flows are
carried to the next finer level by the same resize. Both kernels fix the
order of every floating-point operation, so their outputs are bit-exact
against the standard ndimage implementations of these filters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, ShapeError
from .field import Direction, FlowField, Frame, make_grid, sample_bilinear

_GRAY_SCALE = 255.0  # internal intensity scale so default alpha matches convention


@dataclass(frozen=True)
class HSParams:
    """Estimator parameters: smoothness weight, sweeps per level, pyramid."""

    alpha: float = 15.0
    iterations: int = 100
    pyramid_levels: int = 4
    downscale: float = 0.5

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise DataError(f"alpha must be positive, got {self.alpha}")
        if self.iterations < 1 or self.pyramid_levels < 1:
            raise DataError("iterations and pyramid_levels must be >= 1")
        if not (0.0 < self.downscale < 1.0):
            raise DataError(f"downscale must be in (0, 1), got {self.downscale}")


def _to_gray(frame: Frame) -> np.ndarray:
    return frame.gray() * _GRAY_SCALE


# Normalized Gaussian taps for sigma = 1 at offsets -4..4 (radius 4 sigma).
_GAUSS_RADIUS = 4
_GAUSS_TAPS = np.exp(-0.5 * np.arange(-_GAUSS_RADIUS, _GAUSS_RADIUS + 1) ** 2.0)
_GAUSS_TAPS = _GAUSS_TAPS / _GAUSS_TAPS.sum()


def _gaussian_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Gaussian along one axis of a 2-D array, edge values repeated beyond it.

    Each output starts from centre * w[0], then adds (left + right) * w[j]
    for j = 4 down to 1, the order of a symmetric 1-D correlation.
    """
    r, n = _GAUSS_RADIUS, a.shape[axis]
    first, last = (a[:1], a[-1:]) if axis == 0 else (a[:, :1], a[:, -1:])
    padded = np.concatenate([first.repeat(r, axis), a, last.repeat(r, axis)], axis)

    def shifted(k):  # the n padded values from offset k on, along axis
        return padded[k:k + n] if axis == 0 else padded[:, k:k + n]

    out = a * _GAUSS_TAPS[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(shifted(r - j), shifted(r + j), out=pair)
        pair *= _GAUSS_TAPS[r + j]
        out += pair
    return out


def _gaussian(img: np.ndarray) -> np.ndarray:
    """Separable sigma = 1 Gaussian, axis 0 then axis 1, nearest-edge border."""
    return _gaussian_axis(_gaussian_axis(img, 0), 1)


def _zoom_axis(n_in: int, n_out: int):
    """Source indices and linear weights of each output index on one axis.

    The coordinate c = k * ((n_in - 1) / (n_out - 1)) is not clamped: at the
    last output it can land an ulp past n_in - 1, where the clamped index
    pair blends the edge value with itself. Clamping c would move such
    outputs by an ulp.
    """
    c = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    i0 = np.floor(c).astype(np.intp)
    w0 = 1.0 - (c - i0)
    return i0, np.minimum(i0 + 1, n_in - 1), w0, 1.0 - w0


def _zoom(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinear resize of a 2-D array to shape, corners mapped to corners.

    The four corner terms a * wy * wx are summed from zero in the order
    (y0, x0), (y0, x1), (y1, x0), (y1, x1).
    """
    y0, y1, wy0, wy1 = _zoom_axis(a.shape[0], shape[0])
    x0, x1, wx0, wx1 = _zoom_axis(a.shape[1], shape[1])
    out = np.zeros(shape)  # from +0.0, so a sum of -0.0 terms is +0.0
    term = np.empty(shape)
    for y, wy in ((y0, wy0), (y1, wy1)):
        rows = a[y]
        for x, wx in ((x0, wx0), (x1, wx1)):
            np.take(rows, x, axis=1, out=term)
            term *= wy[:, None]
            term *= wx
            out += term
    return out


def _downsample(img: np.ndarray, factor: float) -> np.ndarray:
    h = max(4, int(round(img.shape[0] * factor)))
    w = max(4, int(round(img.shape[1] * factor)))
    return _zoom(_gaussian(img), (h, w))


def _pyramid(img: np.ndarray, params: HSParams) -> list[np.ndarray]:
    levels = [img]
    for _ in range(params.pyramid_levels - 1):
        prev = levels[-1]
        if min(prev.shape) * params.downscale < 8:
            break
        levels.append(_downsample(prev, params.downscale))
    return levels[::-1]  # coarsest first


def _upsample_flow(u: np.ndarray, v: np.ndarray, shape: tuple[int, int]):
    fy = shape[0] / u.shape[0]
    fx = shape[1] / u.shape[1]
    u2, v2 = _zoom(u, shape), _zoom(v, shape)
    u2 *= fx
    v2 *= fy
    return u2, v2


def _neighbor_count(shape: tuple[int, int]) -> np.ndarray:
    n = np.full(shape, 4.0)
    n[0, :] -= 1.0
    n[-1, :] -= 1.0
    n[:, 0] -= 1.0
    n[:, -1] -= 1.0
    return n


def _level_energy(u, v, fx, fy, c, alpha2) -> float:
    data = fx * u + fy * v + c
    e = float(np.sum(data * data))
    e += alpha2 * float(np.sum((u[1:, :] - u[:-1, :]) ** 2) + np.sum((v[1:, :] - v[:-1, :]) ** 2))
    e += alpha2 * float(np.sum((u[:, 1:] - u[:, :-1]) ** 2) + np.sum((v[:, 1:] - v[:, :-1]) ** 2))
    return e


# Stride-2 sub-lattices (row parity, column parity): color (i+j) even first.
_SUBLATTICES = ((0, 0), (1, 1), (0, 1), (1, 0))


def _split(a: np.ndarray) -> dict:
    """Zero-bordered contiguous copies of a's four sub-lattices.

    Adding 0.0 maps -0.0 to +0.0, so a neighbor sum of zeros is +0.0, the
    same bits as a sum that starts from 0.0.
    """
    parts = {}
    for r, s in _SUBLATTICES:
        sub = a[r::2, s::2]
        parts[r, s] = np.zeros((sub.shape[0] + 2, sub.shape[1] + 2))
        parts[r, s][1:-1, 1:-1] = sub + 0.0
    return parts


def _join(parts: dict, shape: tuple[int, int]) -> np.ndarray:
    a = np.empty(shape)
    for (r, s), part in parts.items():
        a[r::2, s::2] = part[1:-1, 1:-1]
    return a


def _neighbors(parts: dict, r: int, s: int) -> tuple:
    """Views of the up, down, left and right neighbors of sub-lattice (r, s).

    Pixel (r + 2k, s + 2l) sits at [1 + k, 1 + l] of its sub-lattice. Its
    vertical neighbors are rows r + k and r + k + 1 of sub-lattice (1 - r, s),
    its horizontal ones columns s + l and s + l + 1 of (r, 1 - s); off-image
    neighbors land on the zero border.
    """
    rows, cols = (n - 2 for n in parts[r, s].shape)
    vert, horiz = parts[1 - r, s], parts[r, 1 - s]
    return (vert[r:r + rows, 1:1 + cols], vert[r + 1:r + 1 + rows, 1:1 + cols],
            horiz[1:1 + rows, s:s + cols], horiz[1:1 + rows, s + 1:s + 1 + cols])


def _neighbor_mean(nbrs: tuple, n_p: np.ndarray) -> np.ndarray:
    """(((up + down) + left) + right) / n_p; the order fixes the output bits."""
    total = nbrs[0] + nbrs[1]
    total += nbrs[2]
    total += nbrs[3]
    total /= n_p
    return total


def _solve_level(a, b, u, v, params: HSParams, track_energy: bool):
    """One linearization at this level, minimized by red-black sweeps.

    The data residual is linearized once around the incoming flow (b is
    warped by it), then the quadratic energy over the total flow is
    descended. A half-sweep updates only the pixels of its color, the two
    stride-2 sub-lattices of that color one after the other, and is an
    exact block minimization. Each sub-lattice of u and v is held in its
    own zero-bordered array, so every operand is contiguous along rows.
    The per-pixel arithmetic and its order are those of the full-array
    red-black update, so the outputs are bit-identical to it.
    """
    h, w = a.shape
    grid = make_grid(h, w)
    bw = sample_bilinear(b, grid.x + u, grid.y + v)
    avg = 0.5 * (a + bw)
    fy_d, fx_d = np.gradient(avg)
    ft = bw - a
    c = ft - fx_d * u - fy_d * v  # residual at total flow (u, v) is fx*u + fy*v + c

    alpha2 = params.alpha ** 2
    n_p = _neighbor_count((h, w))
    denom = alpha2 * n_p + fx_d * fx_d + fy_d * fy_d
    u_parts, v_parts = _split(u), _split(v)
    lattices = [
        (u_parts[r, s][1:-1, 1:-1], v_parts[r, s][1:-1, 1:-1],
         _neighbors(u_parts, r, s), _neighbors(v_parts, r, s))
        + tuple(np.ascontiguousarray(x[r::2, s::2]) for x in (fx_d, fy_d, c, denom, n_p))
        for r, s in _SUBLATTICES
    ]

    def energy() -> float:
        return _level_energy(_join(u_parts, (h, w)), _join(v_parts, (h, w)),
                             fx_d, fy_d, c, alpha2)

    energies = [energy()] if track_energy else []
    for _ in range(params.iterations):
        for u_s, v_s, u_nbrs, v_nbrs, fx, fy, c_s, denom_s, n_s in lattices:
            ubar = _neighbor_mean(u_nbrs, n_s)
            vbar = _neighbor_mean(v_nbrs, n_s)
            t = fx * ubar  # t = (fx*ubar + fy*vbar + c) / denom
            tmp = fy * vbar
            t += tmp
            t += c_s
            t /= denom_s
            np.subtract(ubar, np.multiply(fx, t, out=tmp), out=u_s)
            np.subtract(vbar, np.multiply(fy, t, out=tmp), out=v_s)
        if track_energy:
            energies.append(energy())
    return _join(u_parts, (h, w)), _join(v_parts, (h, w)), np.array(energies)


def _estimate(frame_a: Frame, frame_b: Frame, params: HSParams, track_energy: bool):
    if (frame_a.height, frame_a.width) != (frame_b.height, frame_b.width):
        raise ShapeError(
            f"frame dimensions differ: {frame_a.height}x{frame_a.width} vs "
            f"{frame_b.height}x{frame_b.width}"
        )
    pa = _pyramid(_to_gray(frame_a), params)
    pb = _pyramid(_to_gray(frame_b), params)
    u = np.zeros(pa[0].shape)
    v = np.zeros(pa[0].shape)
    energies = np.array([])
    for li, (a, b) in enumerate(zip(pa, pb)):
        if u.shape != a.shape:
            u, v = _upsample_flow(u, v, a.shape)
        finest = li == len(pa) - 1
        u, v, energies = _solve_level(a, b, u, v, params, track_energy and finest)
    return FlowField(u=u, v=v, direction=Direction.FORWARD), energies


def estimate_flow_with_energy(frame_a: Frame, frame_b: Frame, params: HSParams = HSParams()):
    """Forward flow a->b plus the finest level's per-sweep energy history."""
    return _estimate(frame_a, frame_b, params, track_energy=True)


def estimate_flow(frame_a: Frame, frame_b: Frame, params: HSParams = HSParams()) -> FlowField:
    """Dense forward flow from frame_a to frame_b (direction tag Forward).

    Tracks no energy; `estimate_flow_with_energy` returns the same flow
    with the finest level's energy history.
    """
    return _estimate(frame_a, frame_b, params, track_energy=False)[0]


def reverse_pair(frame_a: Frame, frame_b: Frame, params: HSParams = HSParams()) -> FlowField:
    """Flow from frame_b back to frame_a; Forward-tagged with b as source."""
    return estimate_flow(frame_b, frame_a, params)


# --- Middlebury .flo serialization -------------------------------------------

_FLO_MAGIC = 202021.25


def write_flo(flow: FlowField) -> bytes:
    """Serialize a flow field in the Middlebury layout.

    4-byte little-endian float 202021.25 (bytes "PIEH"), int32 width, int32
    height, then width*height (u, v) float32 pairs row-major.
    """
    h, w = flow.shape
    if w >= 2 ** 31 or h >= 2 ** 31:
        raise FormatError(f"dimensions {w}x{h} exceed int32")
    header = struct.pack("<fii", _FLO_MAGIC, w, h)
    data = np.empty((h, w, 2), dtype="<f4")
    data[..., 0] = flow.u
    data[..., 1] = flow.v
    return header + data.tobytes()


def read_flo(data: bytes, direction: Direction) -> FlowField:
    """Parse Middlebury bytes; the direction tag is the caller's claim."""
    if len(data) < 12:
        raise ShapeError(f"payload of {len(data)} bytes is shorter than the 12-byte header")
    magic, w, h = struct.unpack("<fii", data[:12])
    if magic != _FLO_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_FLO_MAGIC}")
    if w < 1 or h < 1:
        raise FormatError(f"invalid dimensions {w}x{h}")
    need = 12 + w * h * 8
    if len(data) != need:
        raise ShapeError(f"expected {need} bytes for {w}x{h}, got {len(data)}")
    uv = np.frombuffer(data[12:], dtype="<f4").astype(np.float64).reshape(h, w, 2)
    if not np.all(np.isfinite(uv)):
        raise DataError("flow payload contains non-finite values")
    return FlowField(u=uv[..., 0], v=uv[..., 1], direction=direction)
