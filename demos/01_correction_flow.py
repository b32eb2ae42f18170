"""Build the analytic correction flow for a wide lens and measure what it fixes.

The scene is rendered twice: once through an ideal perspective camera and
once through the stereographic lens that bends straight lines. The
correction flow maps rectified pixels back into the observed frame; pulling
annotation points through it shows lines straightening and face landmarks
returning to their undistorted positions.

Run from the repository root:  python3 demos/01_correction_flow.py
"""

from pathlib import Path

import numpy as np

from rectiflow import (
    CameraSpec,
    LineSample,
    default_scene,
    line_acc,
    pull_points_through_flow,
    render_scene,
    shape_acc,
    stereographic_correction_flow,
    undistort_points,
    warp_backward,
)
from rectiflow.pnm import write_ppm

OUT = Path("demo_out/correction")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    cam = CameraSpec(width=192, height=192, focal_px=100.0)
    scene = default_scene(cam, n_lines=6, n_faces=2, seed=11)

    ideal, _ = render_scene(scene, cam, distorted=False)
    observed, ann = render_scene(scene, cam, distorted=True)
    (OUT / "ideal.ppm").write_bytes(write_ppm(ideal))
    (OUT / "observed.ppm").write_bytes(write_ppm(observed))

    flow = stereographic_correction_flow(cam)
    mag = np.hypot(flow.u, flow.v)
    print(f"camera {cam.width}x{cam.height}, focal {cam.focal_px} px")
    print(f"correction flow magnitude: max {mag.max():.2f} px, "
          f"mean {mag.mean():.2f} px, zero at the principal point")

    corrected = warp_backward(observed, flow)
    (OUT / "corrected.ppm").write_bytes(write_ppm(corrected))

    lines_obs = [LineSample(points=l.points_image) for l in ann.lines if not l.out_of_frame]
    lines_corr = [LineSample(points=pull_points_through_flow(flow, l.points_image))
                  for l in ann.lines if not l.out_of_frame]
    print(f"line straightness: {line_acc(lines_obs):.3f} observed "
          f"-> {line_acc(lines_corr):.3f} corrected (100 = straight)")

    for k, face in enumerate(f for f in ann.faces if not f.out_of_frame):
        pulled = pull_points_through_flow(flow, face.landmarks_image)
        before = shape_acc(face.landmarks_ideal, face.landmarks_image)
        after = shape_acc(face.landmarks_ideal, pulled)
        err = np.hypot(*(pulled - face.landmarks_ideal).T)
        print(f"face {k}: shape {before:.3f} -> {after:.3f}, "
              f"worst landmark error {err.max():.4f} px after correction")

    # The flow-only pull must agree with the closed-form lens inverse.
    pts = np.concatenate([l.points_image for l in ann.lines if not l.out_of_frame])
    gap = np.hypot(*(pull_points_through_flow(flow, pts)
                     - undistort_points(pts, cam)).T)
    print(f"fixed-point pull vs analytic inverse: worst gap {gap.max():.4f} px "
          f"over {pts.shape[0]} line points")

    print(f"wrote ideal/observed/corrected renders to {OUT}/")


if __name__ == "__main__":
    main()
