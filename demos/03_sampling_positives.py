"""Antipodal candidate sampling and the scored positive set.

The sampler draws surface points, shoots rays inside the friction cone,
and keeps pairs that fit between the jaws; build_positive_set re-scores
candidates until enough reach s_g = 1. Run:

    python3 demos/03_sampling_positives.py
"""

import numpy as np

from graspfield import (
    GripperModel,
    box_cloud,
    build_positive_set,
    sample_candidates,
    score_grasps,
)


def main():
    obj = box_cloud()
    gripper = GripperModel()

    candidates = sample_candidates(obj, gripper, count=200, seed=0)
    print(f"sampled {len(candidates)} candidates (unscored)")
    scores = score_grasps(obj, candidates, gripper)[:, 2]
    print(f"fraction scoring (1,1,1) before filtering: {float(np.mean(scores)):.2f}")

    positives = build_positive_set(obj, gripper, per_object=50, seed=0)
    print(f"\npositive set: {len(positives)} grasps, all stored with scores")
    assert (positives.scores == 1).all()

    angles = positives.angles
    print(f"center spread per axis: {np.ptp(positives.centers, axis=0).round(4)}")
    print(f"approach angle range: [{angles.min():+.3f}, {angles.max():+.3f}] rad")

    # orientations are canonical (headless fingertip line, one sign kept)
    orientations = positives.orientations
    print(f"orientations unit length: {np.allclose(np.linalg.norm(orientations, axis=1), 1.0)}")

    # determinism: the same seed reproduces the same set bit for bit
    again = build_positive_set(obj, gripper, per_object=50, seed=0)
    same = np.array_equal(positives.centers, again.centers) and np.array_equal(
        positives.orientations, again.orientations
    )
    print(f"rerun with the same seed identical: {same}")


if __name__ == "__main__":
    main()
