"""Ground-to-aerial localization building blocks.

BEV projection geometry, visible-surface estimation from volumetric
confidences, similarity-matrix refinement with dustbin normalization,
weighted Procrustes 3-DoF pose recovery, training losses, evaluation
metrics, and a synthetic oracle harness tying them together.
"""

from .geometry import (AerialMeta, BevGridSpec, CameraIntrinsics,
                       HeightLayerSpec, Pose3DoF, SceneSpec,
                       aerial_px_to_metric, metric_to_aerial_px, wrap_angle)
from .losses import LossConfig, height_loss, matching_loss, total_loss, vce_loss
from .pipeline import PipelineConfig, PipelineResult, run_localization
from .refiner import (RefinerParams, SimilarityMatrix, extract_matches, initial_similarity,
                      match_probabilities, refine)
from .solver import (CorrespondenceSet, pose_error, solve_translation_only,
                     solve_weighted_procrustes)
from .surface import (BevFeatureMap, aerial_depth_to_height_index, fuse_height_features,
                      normalize_confidence, surface_from_accumulation)
from .synthetic import (SceneBundle, SceneTruth, SyntheticScene, generate_scene,
                        load_scene_dir, make_scene_bundle, render_inputs,
                        save_scene_dir)

__version__ = "0.1.0"
