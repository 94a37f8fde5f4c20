"""Refinement stage: closing-area points, refinability, labels, codec.

Proposals with enough points between the fingers are selected; each gets
a 0/1 label against its nearest ground-truth grasp and, when positive,
residuals that carry the proposal onto it. Run:

    python3 demos/07_refinement.py
"""

import numpy as np

from graspfield import (
    GraspSet,
    GripperModel,
    box_cloud,
    build_positive_set,
    build_refinement_targets,
    decode_refinements,
    select_refinable,
)


def main():
    obj = box_cloud()
    gripper = GripperModel()
    positives = build_positive_set(obj, gripper, per_object=30, seed=2)

    # the closing area of the first positive, in its grasp frame
    local = (obj.points - positives.centers[0]) @ positives[0].rotations()[0]
    half = gripper.closing_half_extents()
    local = local[(np.abs(local) <= half).all(axis=1)]
    print(f"closing area of the first positive: {len(local)} points between the fingers")
    print(f"local coordinate bounds: {np.abs(local).max(axis=0).round(4)}")
    print(f"closing box half extents: {half.round(4)}")

    # perturb the positives a little to play the role of network proposals
    rng = np.random.default_rng(7)
    shift = rng.uniform(-0.004, 0.004, (len(positives), 3))
    proposals = GraspSet(positives.centers + shift, positives.orientations, positives.angles)
    keep = select_refinable(proposals, obj, gripper, min_points=50)
    print(f"\n{len(keep)} of {len(proposals)} proposals have more than 50 closing points")

    # each selected proposal is labeled against its nearest positive
    targets = build_refinement_targets(proposals, obj, positives, gripper, gripper.scale, 50)
    n_pos = sum(t.label for t in targets)
    print(f"build_refinement_targets: {len(targets)} targets, {n_pos} positive")

    pos = [t for t in targets if t.label == 1]
    chosen = proposals[[t.proposal_index for t in pos]]
    residuals = ([t.res_center for t in pos], [t.res_orientation for t in pos], [t.res_angle for t in pos])
    refined = decode_refinements(chosen, *residuals, gripper.scale)
    gaps = np.linalg.norm(chosen.centers[:, None] - positives.centers, axis=2)
    gts = positives.centers[gaps.argmin(axis=1)]
    print(f"\ndecoding the {len(pos)} positive targets:")
    print(f"  proposal center error before: {gaps.min(axis=1).max():.2e} m (largest)")
    print(f"  refined  center error after:  {np.linalg.norm(refined.centers - gts, axis=1).max():.2e} m (largest)")


if __name__ == "__main__":
    main()
