"""Synthetic wide-angle world with exact ground truth.

A scene of straight dark lines and elliptical faces is authored in an
ideal (shape-preserving, stereographic) space where its geometry is known
exactly. The observed camera image is the perspective rendering of that
scene, which stretches content radially. Because both projections are
closed-form, the backward flow that rectifies an observed frame is known
analytically, as are jittered frame sequences and their true inter-frame
flows. Everything downstream is validated against this oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, DataError, DomainError, FormatError, ShapeError
from .field import Direction, FlowField, Frame, Mask, make_grid, warp_backward

_SUBGRID = (np.arange(4) + 0.5) / 4.0 - 0.5  # 4x4 supersampling offsets per pixel
# Subsamples evaluated per block of pixel rows in render_scene: 128 KiB per
# float64 temporary, so a block's working set stays in cache. A block always
# holds at least one row.
_TILE_SAMPLES = 1 << 14


@dataclass(frozen=True)
class CameraSpec:
    """Pinhole geometry shared by the perspective/stereographic pair."""

    width: int
    height: int
    focal_px: float

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ShapeError(f"camera needs at least 2x2 pixels, got {self.width}x{self.height}")
        if not (np.isfinite(self.focal_px) and self.focal_px > 0):
            raise DataError(f"focal_px must be positive, got {self.focal_px}")

    @property
    def principal_point(self) -> tuple[float, float]:
        """The image centre, in pixel coordinates (x, y)."""
        return (self.width - 1) / 2.0, (self.height - 1) / 2.0


@dataclass(frozen=True)
class SceneSpec:
    """Geometry of a synthetic test scene, authored in ideal space.

    line_segments: ((x0, y0), (x1, y1)) per line. face_ellipses: (center,
    semi_axes, orientation_radians) per face. face_landmarks: one point
    list per face, index-aligned with face_ellipses. The seed drives the
    background texture only; geometry is explicit.
    """

    line_segments: tuple = ()
    face_ellipses: tuple = ()
    face_landmarks: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if len(self.face_landmarks) != len(self.face_ellipses):
            raise ShapeError(
                f"{len(self.face_landmarks)} landmark sets for {len(self.face_ellipses)} faces"
            )
        object.__setattr__(self, "line_segments", tuple(
            (tuple(map(float, a)), tuple(map(float, b))) for a, b in self.line_segments))
        object.__setattr__(self, "face_ellipses", tuple(
            (tuple(map(float, c)), tuple(map(float, ax)), float(phi))
            for c, ax, phi in self.face_ellipses))
        object.__setattr__(self, "face_landmarks", tuple(
            tuple(tuple(map(float, p)) for p in pts) for pts in self.face_landmarks))


class JitterProfile(Enum):
    WHITE_NOISE = "white_noise"
    SINUSOIDAL = "sinusoidal"


@dataclass(frozen=True)
class JitterSpec:
    """Synthetic camera-shake description.

    amplitude is the peak translation in pixels. WhiteNoise draws each
    frame's offsets uniformly from [-amplitude, amplitude]; Sinusoidal
    translates along x by amplitude*sin(2*pi*t/period). When rotation is
    enabled each frame also rotates about the image center by at most
    amplitude/50 radians, drawn from the same profile.
    """

    amplitude: float
    profile: JitterProfile = JitterProfile.WHITE_NOISE
    period_frames: int = 16
    seed: int = 0
    rotation: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise DataError(f"jitter amplitude must be >= 0, got {self.amplitude}")
        if self.profile is JitterProfile.SINUSOIDAL and self.period_frames < 2:
            raise DataError(f"sinusoidal period must be >= 2 frames, got {self.period_frames}")


# --- projection geometry ---------------------------------------------------


def _radial_scale_ideal_to_observed(r_s: np.ndarray, focal_px: float) -> np.ndarray:
    """r_observed / r_ideal for ideal radius r_s, with the r_s -> 0 limit of 1."""
    theta = 2.0 * np.arctan(r_s / (2.0 * focal_px))
    if np.any(theta >= np.pi / 2.0):
        raise DomainError(
            "view angle reaches 90 degrees inside the frame; focal length too short "
            f"for radius {float(np.max(r_s)):.2f}"
        )
    r_p = focal_px * np.tan(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r_s > 0.0, r_p / np.where(r_s > 0.0, r_s, 1.0), 1.0)
    return scale


def stereographic_correction_flow(cam: CameraSpec) -> FlowField:
    """Backward flow that rectifies an observed (perspective) frame.

    For output pixel p at radius r_s from the principal point, the view
    angle is theta = 2*atan(r_s/(2f)) and the same ray meets the observed
    image at radius r_p = f*tan(theta), so flow(p) = (r_p/r_s - 1)*(p - pp).
    The flow is zero at the principal point and points radially outward.
    Raises DomainError if theta reaches 90 degrees anywhere in the frame.
    """
    grid = make_grid(cam.height, cam.width)
    px, py = cam.principal_point
    dx = grid.x - px
    dy = grid.y - py
    r_s = np.hypot(dx, dy)
    scale = _radial_scale_ideal_to_observed(r_s, cam.focal_px)
    return FlowField(u=(scale - 1.0) * dx, v=(scale - 1.0) * dy, direction=Direction.BACKWARD)


def distort_points(points, cam: CameraSpec) -> np.ndarray:
    """Map ideal-space (x, y) points to their observed-image positions."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px, py = cam.principal_point
    d = p - (px, py)
    r_s = np.hypot(d[:, 0], d[:, 1])
    scale = _radial_scale_ideal_to_observed(r_s, cam.focal_px)
    return (px, py) + scale[:, None] * d


def undistort_points(points, cam: CameraSpec) -> np.ndarray:
    """Map observed-image (x, y) points back to ideal space (exact inverse)."""
    q = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px, py = cam.principal_point
    d = q - (px, py)
    r_p = np.hypot(d[:, 0], d[:, 1])
    theta = np.arctan(r_p / cam.focal_px)
    r_s = 2.0 * cam.focal_px * np.tan(theta / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r_p > 0.0, r_s / np.where(r_p > 0.0, r_p, 1.0), 1.0)
    return (px, py) + scale[:, None] * d


# --- scene rendering --------------------------------------------------------


@dataclass(frozen=True)
class LineAnnotation:
    """Point samples along one authored line, in both coordinate spaces."""

    points_ideal: np.ndarray
    points_image: np.ndarray
    out_of_frame: bool


@dataclass(frozen=True)
class FaceAnnotation:
    """Landmark positions for one face, in both coordinate spaces."""

    landmarks_ideal: np.ndarray
    landmarks_image: np.ndarray
    out_of_frame: bool


@dataclass(frozen=True)
class SceneAnnotations:
    lines: tuple = ()
    faces: tuple = ()


_LINE_HALF_WIDTH = 0.9
_LINE_VALUE = 0.06
_FACE_VALUE = 0.62
_LINE_POINTS = 32


def _background_blobs(spec: SceneSpec, cam: CameraSpec) -> tuple[np.ndarray, ...]:
    """The background's seeded blobs: centres x and y, widths, amplitudes."""
    rng = np.random.default_rng(spec.seed)
    n_blobs = 8
    cxs = rng.uniform(0, cam.width - 1, n_blobs)
    cys = rng.uniform(0, cam.height - 1, n_blobs)
    sig = rng.uniform(min(cam.width, cam.height) / 12.0, min(cam.width, cam.height) / 5.0, n_blobs)
    amp = rng.uniform(-0.22, 0.28, n_blobs)
    return cxs, cys, sig, amp


def _background(blobs: tuple[np.ndarray, ...], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Smooth blob texture, evaluable at arbitrary ideal-space coords."""
    cxs, cys, sig, amp = blobs
    v = np.full(xs.shape, 0.72)
    for k in range(amp.size):
        d2 = (xs - cxs[k]) ** 2 + (ys - cys[k]) ** 2
        v = v + amp[k] * np.exp(-d2 / (2.0 * sig[k] ** 2))
    return np.clip(v, 0.30, 0.95)


def _segment_distance(xs, ys, a, b) -> np.ndarray:
    ax, ay = a
    bx, by = b
    vx, vy = bx - ax, by - ay
    len2 = vx * vx + vy * vy
    if len2 == 0.0:
        return np.hypot(xs - ax, ys - ay)
    t = np.clip(((xs - ax) * vx + (ys - ay) * vy) / len2, 0.0, 1.0)
    return np.hypot(xs - (ax + t * vx), ys - (ay + t * vy))


def _inside_ellipse(xs, ys, center, axes, phi) -> np.ndarray:
    cx, cy = center
    a, b = axes
    c, s = np.cos(phi), np.sin(phi)
    dx, dy = xs - cx, ys - cy
    ex = c * dx + s * dy
    ey = -s * dx + c * dy
    return (ex / a) ** 2 + (ey / b) ** 2 <= 1.0


def _scene_value(spec: SceneSpec, blobs: tuple[np.ndarray, ...], xs: np.ndarray,
                 ys: np.ndarray) -> np.ndarray:
    v = _background(blobs, xs, ys)
    for center, axes, phi in spec.face_ellipses:
        inside = _inside_ellipse(xs, ys, center, axes, phi)
        v = np.where(inside, 0.5 * v + 0.5 * _FACE_VALUE, v)
    for a, b in spec.line_segments:
        near = _segment_distance(xs, ys, a, b) <= _LINE_HALF_WIDTH
        v = np.where(near, _LINE_VALUE, v)
    return v


def _in_frame(points: np.ndarray, cam: CameraSpec) -> bool:
    return bool(
        np.all(points[:, 0] >= 0.0)
        and np.all(points[:, 0] <= cam.width - 1)
        and np.all(points[:, 1] >= 0.0)
        and np.all(points[:, 1] <= cam.height - 1)
    )


def _line_points(a, b, n: int = _LINE_POINTS) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)[:, None]
    return (1.0 - t) * np.asarray(a, dtype=np.float64) + t * np.asarray(b, dtype=np.float64)


def render_scene(spec: SceneSpec, cam: CameraSpec, distorted: bool) -> tuple[Frame, SceneAnnotations]:
    """Render the scene, ideal (distorted=False) or observed (distorted=True).

    The observed raster is produced by evaluating the analytic scene at the
    exact ideal-space preimage of each subpixel sample, so warping it with
    stereographic_correction_flow recovers the ideal rendering up to
    resampling error. Each pixel is the mean of its 4x4 subsamples,
    evaluated one block of whole pixel rows at a time (at most
    _TILE_SAMPLES subsamples, at least one row). Subsamples are computed
    elementwise and each pixel averages only its own, so the result is
    bit-identical to a whole-frame evaluation.
    Annotations carry every line's point samples and every face's
    landmarks in both ideal and image coordinates; geometry that leaves
    the frame after distortion is flagged, never dropped.
    """
    for a, b in spec.line_segments:
        if not _in_frame(np.array([a, b]), cam):
            raise ContractError(f"line segment {a}-{b} lies outside the frame in ideal space")
    for center, axes, phi in spec.face_ellipses:
        if not _in_frame(np.array([center]), cam):
            raise ContractError(f"face center {center} lies outside the frame in ideal space")

    blobs = _background_blobs(spec, cam)
    grid = make_grid(cam.height, cam.width)
    ox, oy = np.meshgrid(_SUBGRID, _SUBGRID)
    ox, oy = ox.ravel(), oy.ravel()
    rows = max(1, _TILE_SAMPLES // (cam.width * ox.size))
    values = np.empty((cam.height, cam.width))
    for r0 in range(0, cam.height, rows):
        block = slice(r0, r0 + rows)
        xs = (grid.x[block, :, None] + ox).ravel()
        ys = (grid.y[block, :, None] + oy).ravel()
        if distorted:
            ideal = undistort_points(np.stack([xs, ys], axis=1), cam)
            xs, ys = ideal[:, 0], ideal[:, 1]
        samples = _scene_value(spec, blobs, xs, ys)
        values[block] = samples.reshape(-1, cam.width, ox.size).mean(axis=2)
    frame = Frame(values=values)

    def to_image(pts: np.ndarray) -> np.ndarray:
        return distort_points(pts, cam) if distorted else np.array(pts, dtype=np.float64)

    lines = []
    for a, b in spec.line_segments:
        ideal_pts = _line_points(a, b)
        img_pts = to_image(ideal_pts)
        lines.append(LineAnnotation(
            points_ideal=ideal_pts,
            points_image=img_pts,
            out_of_frame=not _in_frame(img_pts, cam),
        ))
    faces = []
    for pts in spec.face_landmarks:
        ideal_pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        img_pts = to_image(ideal_pts)
        faces.append(FaceAnnotation(
            landmarks_ideal=ideal_pts,
            landmarks_image=img_pts,
            out_of_frame=not _in_frame(img_pts, cam),
        ))
    return frame, SceneAnnotations(lines=tuple(lines), faces=tuple(faces))


def default_scene(cam: CameraSpec, n_lines: int = 6, n_faces: int = 2, seed: int = 0) -> SceneSpec:
    """Scene generator: random lines and faces inside the safe central region.

    Geometry keeps an 18% margin so it stays inside the frame after
    distortion at moderate focal lengths. Each face carries 12 rim
    landmarks plus its center.
    """
    rng = np.random.default_rng(seed)
    mx = 0.18 * (cam.width - 1)
    my = 0.18 * (cam.height - 1)
    lines = []
    for _ in range(n_lines):
        a = (rng.uniform(mx, cam.width - 1 - mx), rng.uniform(my, cam.height - 1 - my))
        ang = rng.uniform(0, np.pi)
        length = rng.uniform(0.25, 0.5) * min(cam.width, cam.height)
        b = (a[0] + length * np.cos(ang), a[1] + length * np.sin(ang))
        b = (float(np.clip(b[0], mx, cam.width - 1 - mx)),
             float(np.clip(b[1], my, cam.height - 1 - my)))
        lines.append((a, b))
    faces = []
    landmarks = []
    for _ in range(n_faces):
        cx = rng.uniform(0.3 * cam.width, 0.7 * cam.width)
        cy = rng.uniform(0.3 * cam.height, 0.7 * cam.height)
        a = rng.uniform(0.06, 0.11) * min(cam.width, cam.height)
        b = a * rng.uniform(1.15, 1.45)
        phi = rng.uniform(-0.4, 0.4)
        faces.append(((cx, cy), (a, b), phi))
        ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        ex = a * np.cos(ang)
        ey = b * np.sin(ang)
        rx = cx + np.cos(phi) * ex - np.sin(phi) * ey
        ry = cy + np.sin(phi) * ex + np.cos(phi) * ey
        pts = [(float(x), float(y)) for x, y in zip(rx, ry)] + [(float(cx), float(cy))]
        landmarks.append(tuple(pts))
    return SceneSpec(line_segments=tuple(lines), face_ellipses=tuple(faces),
                     face_landmarks=tuple(landmarks), seed=seed)


# --- jitter -----------------------------------------------------------------


def jitter_signal(spec: JitterSpec, n_frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame (dx, dy, theta) series the jitter applies; regenerable by tests.

    WhiteNoise draws dx, dy ~ U(-a, a) and theta ~ U(-a/50, a/50) per frame
    from one seeded generator in (dx, dy, theta) order frame by frame.
    Sinusoidal uses dx = a*sin(2*pi*t/period), dy = 0, theta =
    (a/50)*sin(2*pi*t/period). Rotation is zeroed when spec.rotation is off.
    """
    a = spec.amplitude
    if spec.profile is JitterProfile.WHITE_NOISE:
        rng = np.random.default_rng(spec.seed)
        draws = rng.uniform(-1.0, 1.0, size=(n_frames, 3))
        dx = a * draws[:, 0]
        dy = a * draws[:, 1]
        theta = (a / 50.0) * draws[:, 2]
    else:
        t = np.arange(n_frames, dtype=np.float64)
        phase = np.sin(2.0 * np.pi * t / spec.period_frames)
        dx = a * phase
        dy = np.zeros(n_frames)
        theta = (a / 50.0) * phase
    if not spec.rotation:
        theta = np.zeros(n_frames)
    return dx, dy, theta


def _rigid_apply(x, y, dx, dy, theta, cx, cy):
    """T(p) = R_theta(p - c) + c + d, applied to coordinate arrays."""
    c, s = np.cos(theta), np.sin(theta)
    rx = x - cx
    ry = y - cy
    return cx + c * rx - s * ry + dx, cy + s * rx + c * ry + dy


def _rigid_invert(x, y, dx, dy, theta, cx, cy):
    rx = x - cx - dx
    ry = y - cy - dy
    c, s = np.cos(theta), np.sin(theta)
    return cx + c * rx + s * ry, cy - s * rx + c * ry


def apply_jitter(frames, spec: JitterSpec) -> tuple[list, list]:
    """Shake a frame sequence rigidly and return the true inter-frame flows.

    Frame t is the input frame resampled through the rigid motion
    T_t(p) = R_t(p - c) + c + d_t about the image center c. The returned
    flows are Forward-tagged fields f_t(p) = T_{t+1}(T_t^{-1}(p)) - p, the
    exact motion of the underlying continuous signal from frame t to t+1.
    Amplitude 0 returns the frames unchanged and all-zero flows.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise DataError(f"jitter needs a sequence of >= 2 frames, got {len(frames)}")
    h, w = frames[0].height, frames[0].width
    for f in frames:
        if (f.height, f.width) != (h, w):
            raise ShapeError("all frames must share dimensions")
    dx, dy, theta = jitter_signal(spec, len(frames))
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    grid = make_grid(h, w)

    jittered = []
    for t, f in enumerate(frames):
        if dx[t] == 0.0 and dy[t] == 0.0 and theta[t] == 0.0:
            jittered.append(f)
            continue
        sx, sy = _rigid_invert(grid.x, grid.y, dx[t], dy[t], theta[t], cx, cy)
        back = FlowField(u=sx - grid.x, v=sy - grid.y, direction=Direction.BACKWARD)
        jittered.append(warp_backward(f, back))

    flows = []
    for t in range(len(frames) - 1):
        ix, iy = _rigid_invert(grid.x, grid.y, dx[t], dy[t], theta[t], cx, cy)
        nx, ny = _rigid_apply(ix, iy, dx[t + 1], dy[t + 1], theta[t + 1], cx, cy)
        flows.append(FlowField(u=nx - grid.x, v=ny - grid.y, direction=Direction.FORWARD))
    return jittered, flows


# --- face masks ---------------------------------------------------------


def face_mask(landmarks, dims: tuple[int, int]) -> Mask:
    """Binary face-region mask from landmarks.

    Fits an axis-aligned ellipse to the landmark bounding box dilated by
    10% (semi-axes 1.1x the half-extents). Degenerate, collinear landmark
    sets fall back to the dilated bounding-box rectangle, never an empty
    mask. dims is (height, width).
    """
    pts = np.asarray(landmarks, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] < 3:
        raise DataError(f"face_mask needs >= 3 landmarks, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DataError("landmarks must be finite")
    h, w = dims
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    cx, cy = (lo + hi) / 2.0
    hx, hy = 1.1 * (hi - lo) / 2.0

    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    degenerate = sv[-1] <= 1e-9 * max(sv[0], 1.0)

    grid = make_grid(h, w)
    if degenerate:
        inside = (np.abs(grid.x - cx) <= max(hx, 0.5)) & (np.abs(grid.y - cy) <= max(hy, 0.5))
    else:
        inside = ((grid.x - cx) / hx) ** 2 + ((grid.y - cy) / hy) ** 2 <= 1.0
    return Mask(values=inside.astype(np.uint8))


def jittered_face_masks(faces, cam: CameraSpec, dx, dy, theta) -> list[Mask]:
    """Per-frame union of the face masks, in rectified space.

    Frame t moves each face's observed-space landmarks by the rigid motion
    that apply_jitter gives the frame (dx[t], dy[t], theta[t] about the
    image center), then undistorts them (exact, since undistortion is
    total). One mask per entry of dx.
    """
    cx, cy = (cam.width - 1) / 2.0, (cam.height - 1) / 2.0
    dims = (cam.height, cam.width)
    masks = []
    for t in range(len(dx)):
        union = np.zeros(dims, dtype=np.uint8)
        for face in faces:
            pts = face.landmarks_image
            moved = np.stack(_rigid_apply(pts[:, 0], pts[:, 1], dx[t], dy[t], theta[t], cx, cy),
                             axis=1)
            union = np.maximum(union, face_mask(undistort_points(moved, cam), dims).values)
        masks.append(Mask(values=union))
    return masks


# --- annotation serialization ----------------------------------------------


def annotations_to_text(ann: SceneAnnotations) -> str:
    """One record per line/landmark set: kind, flag, count, then ideal and
    image coordinates as space-separated floats."""
    rows = []
    for kind, items in (("line", ann.lines), ("face", ann.faces)):
        for item in items:
            ideal = item.points_ideal if kind == "line" else item.landmarks_ideal
            image = item.points_image if kind == "line" else item.landmarks_image
            vals = np.concatenate([ideal.ravel(), image.ravel()])
            rows.append(
                f"{kind} {int(item.out_of_frame)} {ideal.shape[0]} "
                + " ".join(repr(float(v)) for v in vals)
            )
    return "\n".join(rows) + "\n"


def annotations_from_text(text: str) -> SceneAnnotations:
    lines = []
    faces = []
    for number, row in enumerate(text.splitlines(), 1):
        row = row.strip()
        if not row:
            continue
        parts = row.split()
        try:
            kind, flag, count = parts[0], bool(int(parts[1])), int(parts[2])
            vals = np.array([float(v) for v in parts[3:]])
        except (IndexError, ValueError):
            raise FormatError(f"annotation record on line {number} is not "
                              "'kind flag count floats...'") from None
        if vals.size != 4 * count:
            raise DataError(f"annotation record expects {4 * count} floats, got {vals.size}")
        ideal = vals[: 2 * count].reshape(count, 2)
        image = vals[2 * count:].reshape(count, 2)
        if kind == "line":
            lines.append(LineAnnotation(ideal, image, flag))
        elif kind == "face":
            faces.append(FaceAnnotation(ideal, image, flag))
        else:
            raise DataError(f"unknown annotation kind {kind!r}")
    return SceneAnnotations(lines=tuple(lines), faces=tuple(faces))
