"""Anchor-based proposal targets: classify an orientation anchor, regress
the rest.

A ground-truth grasp near a region center becomes (anchor class, center
residual, orientation residual, angle residual); decoding inverts it.
Both directions take one row per region, here a single one.
Run:

    python3 demos/06_anchor_targets.py
"""

import numpy as np

from graspfield import (
    GraspSet,
    GripperModel,
    build_anchors,
    decode_proposals,
    encode_proposals,
    proposal_loss,
)


def main():
    for count in (6, 8):
        anchors = build_anchors(count)
        dots = anchors.orientations @ anchors.orientations.T
        gaps = np.degrees(np.arccos(np.clip(dots[~np.eye(count, dtype=bool)], -1, 1)))
        print(f"{count} anchors, pairwise angles {sorted({float(x) for x in gaps.round(2)})} deg")

    anchors = build_anchors(8)
    scale = GripperModel().scale
    gt = GraspSet([(0.012, -0.003, 0.02)], [(0.3, 0.9, 0.4)], [0.7])
    center = np.array([0.0, 0.0, 0.0])

    (target,) = encode_proposals([center], gt, anchors, scale)
    cls = target.anchor_class
    print(f"\nground truth orientation {gt.orientations[0].round(4)}")
    print(f"classified anchor {cls}: {anchors.orientations[cls].round(4)}")
    print(f"center residual {target.res_center.round(4)} (units of scale {scale})")
    print(f"orientation residual {target.res_orientation.round(4)}")
    print(f"angle residual {target.res_angle:.4f}")

    back = decode_proposals(
        [center], [cls], [target.res_center], [target.res_orientation],
        [target.res_angle], anchors, scale,
    )
    print(f"decode error: center {np.linalg.norm(back.centers[0] - gt.centers[0]):.2e} m, "
          f"angle {abs(back.angles[0] - gt.angles[0]):.1e}")

    # the proposal loss compares predictions against a batch of targets
    probs = np.zeros((1, len(anchors)))
    probs[0, target.anchor_class] = 1.0
    noisy_center = target.res_center + (0.5, 0.0, 0.0)
    parts = proposal_loss(
        probs, [noisy_center], [target.res_orientation], [target.res_angle], [target]
    )
    print("\nloss with a 0.5-scale center error and everything else exact:")
    for key in ("classification", "center", "orientation", "angle", "total"):
        print(f"  {key:14s} {parts[key]:.4f}")


if __name__ == "__main__":
    main()
