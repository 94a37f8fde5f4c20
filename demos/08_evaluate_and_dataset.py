"""Evaluation ratios and the end-to-end dataset pipeline.

VGR / VAGR / VCGR count predicted grasps that re-score as collision-free
antipodal grasps on the object model; generate_dataset runs the whole
labeling pipeline and writes a hashed manifest. Run:

    python3 demos/08_evaluate_and_dataset.py
"""

import tempfile
from pathlib import Path

from graspfield import (
    Config,
    GraspSet,
    GripperModel,
    RigidTransform,
    box_cloud,
    build_positive_set,
    compare_reports,
    evaluate,
    generate_dataset,
)


def main():
    obj = box_cloud()
    gripper = GripperModel()

    # two good grasps, one collision, one miss: vagr 0.75, vcgr 0.5, vgr 0.5
    predicted = GraspSet(
        [(0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.0, 0.05, 0.0), (0.0, 0.0, -0.04)],
        [(0.0, 0.0, 1.0)] * 4,
        [0.0] * 4,
    )
    hand = evaluate(predicted, RigidTransform.identity(), obj, gripper)
    own = evaluate(
        build_positive_set(obj, gripper, per_object=40, seed=3),
        RigidTransform.identity(),
        obj,
        gripper,
    )
    print(compare_reports([("hand-built", hand), ("own-positives", own)]))

    # the full pipeline: positives, views, labels, targets, manifest
    cfg = Config(region_count=16, region_size=64)
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "dataset"
        manifest = generate_dataset(
            [("box", obj)],
            out,
            cfg,
            seed=0,
            views_per_object=2,
            positives_per_object=60,
            split="1:1",
            verify=True,
        )
        print(f"\ndataset written to {out}")
        for path in sorted(out.rglob("*")):
            if path.is_file():
                print(f"  {path.relative_to(out)}  {path.stat().st_size} B")
        print("\nmanifest head:")
        for line in manifest.read_text().splitlines()[:6]:
            print(f"  {line}")
        print("  ...")
        print(f"  {manifest.read_text().splitlines()[-1]}")


if __name__ == "__main__":
    main()
