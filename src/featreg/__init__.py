"""featreg: weakly supervised 3D feature learning and point-cloud registration.

The package learns a keypoint detector (orientation + attention per cluster)
and a rotation-canonicalized descriptor directly from pose-tagged scans, with
no point-level correspondence labels, then registers cloud pairs by RANSAC
over nearest-descriptor matches.
"""

from .autodiff import AdamState, GradCheckReport, Tensor, adam_step, backward, grad_check
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    FormatError,
    InvalidInputError,
    TrainingDivergedError,
)
from .geom import (
    AugmentParams,
    PointCloud,
    RigidTransform,
    apply_rigid,
    augment,
    compose,
    crop_ball,
    random_point_dropout,
    voxel_downsample,
)
from .loss import BranchOutput, TripletLossConfig, alignment_distance, triplet_loss
from .net import (
    Cluster,
    KeypointFeature,
    ModelWeights,
    NetConfig,
    ball_group,
    branch_graph,
    describe,
    detect,
    farthest_point_sample,
)
from .register import (
    Correspondence,
    InferenceConfig,
    Keypoint,
    RegistrationResult,
    compute_descriptors,
    detect_keypoints,
    estimate_rigid_svd,
    match_descriptors,
    ransac_iteration_bound,
    ransac_register,
    register_clouds,
    rte_rre,
    select_keypoints,
)
from .train import PoseTaggedCloud, TrainConfig, build_triplets, parse_config
from .train import train as train_model

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AugmentParams",
    "BranchOutput",
    "Cluster",
    "ConfigurationError",
    "Correspondence",
    "DegenerateGeometryError",
    "FormatError",
    "GradCheckReport",
    "InferenceConfig",
    "InvalidInputError",
    "Keypoint",
    "KeypointFeature",
    "ModelWeights",
    "NetConfig",
    "PointCloud",
    "PoseTaggedCloud",
    "RegistrationResult",
    "RigidTransform",
    "Tensor",
    "TrainConfig",
    "TrainingDivergedError",
    "TripletLossConfig",
    "adam_step",
    "alignment_distance",
    "apply_rigid",
    "augment",
    "backward",
    "ball_group",
    "branch_graph",
    "build_triplets",
    "compose",
    "compute_descriptors",
    "crop_ball",
    "describe",
    "detect",
    "detect_keypoints",
    "estimate_rigid_svd",
    "farthest_point_sample",
    "grad_check",
    "match_descriptors",
    "parse_config",
    "random_point_dropout",
    "ransac_iteration_bound",
    "ransac_register",
    "register_clouds",
    "rte_rre",
    "select_keypoints",
    "train_model",
    "triplet_loss",
    "voxel_downsample",
]
