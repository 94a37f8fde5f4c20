"""Region-based grasp detection pipeline: geometry, physics scoring,
candidate sampling, confidence labeling, region extraction, target
codecs, and evaluation metrics for parallel-jaw grasping on point clouds.

The public names are the ones imported below: what the demos, the
command line and the README use, plus the core types and errors. The
rest is reached through its module (``graspfield.fileio``,
``graspfield.region``, ...).
"""

from types import ModuleType as _ModuleType

from .anchors import build_anchors, build_proposal_targets, decode_proposals, encode_proposals, proposal_loss
from .confidence import confidence_field, segmentation_loss
from .config import Config, load_config
from .dataset import generate_dataset
from .errors import ConfigError, DataError, GraspFieldError, GraspFieldWarning, UngraspableError, VerificationError
from .fileio import load_cloud, load_grasps, save_cloud_binary, save_cloud_text, save_grasps
from .geometry import GraspSet, GripperModel, PointCloud, RigidTransform, transform_grasps
from .metrics import compare_reports, evaluate
from .quality import find_contacts, score_grasps
from .refine import build_refinement_targets, decode_refinements, select_refinable
from .region import extract_regions
from .sampling import build_positive_set, sample_candidates
from .synthetic import box_cloud, sphere_cloud

__version__ = "0.1.0"

# every name imported above, listed once; the submodules are not in it
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
