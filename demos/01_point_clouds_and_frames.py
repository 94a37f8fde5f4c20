"""Point clouds, file round trips, and grasp coordinate frames.

Run from the repository root:

    python3 demos/01_point_clouds_and_frames.py
"""

import tempfile
from pathlib import Path

import numpy as np

from graspfield import (
    GraspSet,
    RigidTransform,
    load_cloud,
    save_cloud_binary,
    save_cloud_text,
    sphere_cloud,
    transform_grasps,
)


def main():
    cloud = sphere_cloud(radius=0.035, count=500)
    print(f"sphere cloud: {len(cloud)} points, normals: {cloud.normals is not None}")
    print(f"extent per axis: {np.ptp(cloud.points, axis=0).round(4)}")

    # text files round-trip float64 exactly; binary quantizes to float32
    with tempfile.TemporaryDirectory() as td:
        text_path = Path(td) / "sphere.csv"
        bin_path = Path(td) / "sphere.gfc"
        save_cloud_text(text_path, cloud)
        save_cloud_binary(bin_path, cloud)
        back_text = load_cloud(text_path)
        back_bin = load_cloud(bin_path)
        print(f"text round trip exact: {np.array_equal(back_text.points, cloud.points)}")
        bin_err = np.abs(back_bin.points - cloud.points).max()
        print(f"binary round trip max error: {bin_err:.2e} (float32 storage)")
        print(f"file sizes: text {text_path.stat().st_size} B, binary {bin_path.stat().st_size} B")

    # a grasp is (center, fingertip-line orientation, approach angle); a
    # set holds one per row, and its frames are rotations whose columns
    # are the X, Y and Z axes
    grasps = GraspSet([(0.0, 0.0, 0.0), (0, 0, 0)], [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)], [0.0, 0.0])
    r, vertical = grasps.rotations()
    print("\nhand-case grasp frame (orientation +y, angle 0):")
    print(f"  x axis {r[:, 0].round(6)}")
    print(f"  y axis {r[:, 1].round(6)}")
    print(f"  z axis {r[:, 2].round(6)}")
    print(f"  orthonormal: {np.abs(r.T @ r - np.eye(3)).max():.1e}, det {np.linalg.det(r):+.6f}")

    # the frame construction is total: a vertical fingertip line takes the
    # fallback reference instead of dividing by zero
    print(f"vertical orientation still gives a frame, x = {vertical[:, 0].round(6)}")

    # moving a grasp with a rigid transform preserves its geometry
    angle = 0.4
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    motion = RigidTransform(rot, (0.05, -0.02, 0.01))
    moved = transform_grasps(grasps[:1], motion)
    print(f"\nafter a rigid motion: center {moved.centers[0].round(4)}, angle {moved.angles[0]:.4f}")
    print(f"closing line follows the rotation: {np.allclose(moved.orientations[0], rot @ grasps.orientations[0])}")


if __name__ == "__main__":
    main()
