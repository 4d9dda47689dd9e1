"""Procedural generation and evaluation of full and partial non-rigid shape
matching instances."""

from .meshes import (DenseCorrespondence, Mesh, MeshValidationError,
                     RigidTransform, UNKNOWN_LABEL, UNMATCHED,
                     identity_correspondence)
from .meshio import MeshFormatError, load_mesh, save_mesh
from .geometry import (closest_points_on_triangles, connected_components,
                       evaluate_correspondence, geodesic_distance_fields,
                       normalize_area, normalize_to_unit_box, procrustes_align,
                       project_points_to_surface, rotate_z, surface_area)
from .config import GenerationConfig
from .decimate import decimate, remesh_with_correspondence
from .scanning import (CameraPose, PartialMesh, generate_partial,
                       generate_partial_pair)
from .network import (ShapeNetwork, build_network, compose,
                      correspondence_between, propagate_annotation,
                      shortest_path)
from .pairs import enumerate_pairs, default_split_manifest
from .pipeline import MatchingInstance, generate_instance, run_generation
from .metrics import evaluate_instance as evaluate_matching

__all__ = [
    "GenerationConfig", "decimate", "remesh_with_correspondence",
    "CameraPose", "PartialMesh", "generate_partial", "generate_partial_pair",
    "ShapeNetwork", "build_network", "compose", "correspondence_between",
    "propagate_annotation", "shortest_path", "enumerate_pairs",
    "default_split_manifest", "MatchingInstance", "generate_instance",
    "run_generation", "evaluate_matching",
    "DenseCorrespondence", "Mesh", "MeshValidationError", "MeshFormatError",
    "RigidTransform", "UNKNOWN_LABEL", "UNMATCHED",
    "identity_correspondence", "load_mesh", "save_mesh",
    "closest_points_on_triangles", "connected_components",
    "evaluate_correspondence", "geodesic_distance_fields", "normalize_area",
    "normalize_to_unit_box", "procrustes_align", "project_points_to_surface",
    "rotate_z", "surface_area",
]

__version__ = "0.1.0"
