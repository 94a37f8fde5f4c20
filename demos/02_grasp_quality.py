"""Physics-based grasp scoring: contacts, force closure, collision.

Every grasp gets a triplet (s_a, s_c, s_g): antipodal, collision-free,
and their minimum. Run:

    python3 demos/02_grasp_quality.py
"""

import numpy as np

from graspfield import GraspSet, GripperModel, box_cloud, find_contacts, score_grasps


NAMES = [
    "centered across the thin side",
    "shifted along the box",
    "base digs into the surface",
    "floating off the object",
    "slanted closing line",
]
CASES = GraspSet(
    [(0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.0, 0.05, 0.0), (0.0, 0.0, -0.04), (0.0, 0.0, 0.0)],
    [(0.0, 0.0, 1.0)] * 4 + [(0.0, 1.0, 1.0)],
    [0.0] * 5,
)


def main():
    obj = box_cloud()
    gripper = GripperModel()
    print(f"box cloud: {len(obj)} points, gripper opening {gripper.max_opening} m\n")

    print(f"{'case':34s} s_a  s_c  s_g")
    for name, (sa, sc, sg) in zip(NAMES, score_grasps(obj, CASES, gripper).tolist()):
        print(f"{name:34s} {sa:3d}  {sc:3d}  {sg:3d}")

    # contacts for the good grasp: extreme points along the closing line,
    # as point indices per grasp (-1 where a jaw sweeps nothing)
    ia, ib = find_contacts(obj, CASES, gripper)
    a, b = ia[0], ib[0]
    print("\ncontacts of the centered grasp:")
    print(f"  side A at {obj.points[a].round(4)}, normal {obj.normals[a].round(3)}")
    print(f"  side B at {obj.points[b].round(4)}, normal {obj.normals[b].round(3)}")
    width = np.linalg.norm(obj.points[a] - obj.points[b])
    print(f"  grasp width {width:.4f} m (jaws open to {gripper.max_opening} m)")
    print(f"  the floating grasp touches nothing: {ia[3]}, {ib[3]}")

    # friction decides the slanted case: contacts sit 45 degrees off the
    # closing line, outside arctan(0.6) but inside arctan(1.2)
    slanted = CASES[4]
    for mu in (0.6, 1.2):
        s = score_grasps(obj, slanted, gripper, mu=mu)
        print(f"slanted grasp with mu={mu}: antipodal {s[0, 0]}")


if __name__ == "__main__":
    main()
