"""Smooth a jittery correction-flow sequence and render the stabilized clip.

Per-frame pseudo-label flows correct each frame well but disagree across
time, so the corrected clip shakes. Descending the combined objective
(fidelity to the pseudo-labels, an edge penalty inside face regions, and
a temporal term on the correction trajectory) trades a little per-frame
fidelity for a much smoother trajectory.

Run from the repository root:  python3 demos/05_video_adaptation.py
"""

from pathlib import Path

import numpy as np

from rectiflow import (
    AdaptParams,
    CameraSpec,
    JitterProfile,
    JitterSpec,
    LossWeights,
    adapt_sequence,
    apply_jitter,
    correct_sequence,
    default_scene,
    loss_flow,
    loss_video,
    render_scene,
    stability_score,
    stereographic_correction_flow,
    trajectory_of_sequence,
)
from rectiflow.adapt import adapt_history_csv
from rectiflow.pnm import write_ppm
from rectiflow.synth import jitter_signal, jittered_face_masks

OUT = Path("demo_out/adaptation")
N_FRAMES = 12


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    cam = CameraSpec(width=96, height=96, focal_px=48.0)
    scene = default_scene(cam, n_lines=4, n_faces=2, seed=7)
    observed, ann = render_scene(scene, cam, distorted=True)

    jit = JitterSpec(amplitude=1.0, profile=JitterProfile.WHITE_NOISE,
                     seed=8, rotation=True)
    frames, fwd = apply_jitter([observed] * N_FRAMES, jit)
    pseudo = [stereographic_correction_flow(cam)] * N_FRAMES

    # Face masks live in rectified coordinates: each face moves with the
    # jitter, then its landmarks are undistorted.
    masks = jittered_face_masks(ann.faces, cam, *jitter_signal(jit, N_FRAMES))

    params = AdaptParams(lambda_temporal=10.0, mu_mask=0.1, step_size=0.25,
                         max_iters=80, tol=1e-9)
    lw = LossWeights(lambda_temporal=params.lambda_temporal, mu_mask=params.mu_mask)
    before = loss_video(pseudo, pseudo, masks, fwd, lw)
    adapted, history = adapt_sequence(pseudo, masks, fwd, params)
    after = loss_video(adapted, pseudo, masks, fwd, lw)

    print(f"{N_FRAMES} frames at {cam.width}x{cam.height}, "
          f"{int(np.sum([m.values for m in masks]))} masked pixels total")
    print(f"descent: {len(history)} accepted steps, total loss "
          f"{before.total:.4f} -> {after.total:.4f}")
    drop = 1.0 - after.terms["temporal"] / before.terms["temporal"]
    print(f"temporal term {before.terms['temporal']:.4f} -> "
          f"{after.terms['temporal']:.4f} ({100 * drop:.1f}% drop)")
    fid = np.mean([loss_flow(a, p) for a, p in zip(adapted, pseudo)])
    print(f"fidelity to pseudo-labels: {fid:.4f} px^2 mean square deviation")

    band = (2, 3)
    stab_b = stability_score(trajectory_of_sequence(pseudo, fwd), band)
    stab_a = stability_score(trajectory_of_sequence(adapted, fwd), band)
    print(f"stability avg {stab_b.avg:.4f} -> {stab_a.avg:.4f} "
          f"(translational {stab_b.translational:.4f} -> {stab_a.translational:.4f})")

    (OUT / "loss_history.csv").write_text(adapt_history_csv(history))
    for t, frame in enumerate(correct_sequence(frames, adapted)):
        (OUT / f"corrected_{t:03d}.ppm").write_bytes(write_ppm(frame))
    print(f"wrote loss history and {N_FRAMES} corrected frames to {OUT}/")


if __name__ == "__main__":
    main()
