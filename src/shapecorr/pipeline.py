"""End-to-end instance generation.

For each enumerated pair: load both shapes from the network (dataset scale
applied), optionally area-normalize, remesh to a random target resolution,
apply the partiality setting (none / source-only / overlap-constrained
pair), rotate around z, and assemble the ground-truth correspondence
between the emitted discretisations. Everything is a pure function of
(manifest, config, global_seed).
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry as geo
from .config import CAM_POS_REGIMES, ConfigError
from .corrio import load_correspondence, save_correspondence
from .decimate import RemeshCache, RemeshResult, remesh_with_correspondence
from .meshes import DenseCorrespondence, Mesh, identity_correspondence
from .meshio import load_mesh, save_colored_ply, save_mesh
from .network import (compose, correspondence_between, project_template_pair,
                      shortest_path)
from .pairs import enumerate_pairs
from .scanning import (OverlapStats, PartialMesh, RaycastCache,
                       generate_partial, generate_partial_pair, restrict)
from .textio import (TEMP_NAME, read_key_values, remove_path, replace_atomic,
                     write_atomic, write_key_values)

# role bytes for per-instance seed streams
ROLE_REMESH_X = 0
ROLE_REMESH_Y = 1
ROLE_PARTIALITY = 2
ROLE_ROTATE_X = 3
ROLE_ROTATE_Y = 4


def derive_seed(global_seed, index, role):
    """Stable 64-bit stream seed from (global_seed, instance index, role)."""
    h = hashlib.sha256(struct.pack("<qqB", int(global_seed), int(index),
                                   int(role))).digest()
    return int.from_bytes(h[:8], "little")


def derived_rng(global_seed, index, role):
    return np.random.default_rng(derive_seed(global_seed, index, role))


@dataclass
class MatchingInstance:
    setting: str
    shape_x: Mesh
    shape_y: Mesh
    gt: DenseCorrespondence
    transforms: dict  # per-shape: rotation_z angle, scale note
    overlap: OverlapStats | None
    provenance: dict

    def __post_init__(self):
        if self.setting == "partial_partial" and self.overlap is None:
            raise ValueError("P2P instance requires overlap stats")
        if self.setting != "partial_partial" and self.overlap is not None:
            raise ValueError("overlap stats only valid for P2P")
        self.gt.validate_against(self.shape_x, self.shape_y)


def _prepare_shape(net, shape_id, config, rng, remesh_cache):
    """The network mesh (scale from the node, optionally area-normalized)
    and its ``RemeshResult``; with ``remesh=false`` that emits the network
    mesh itself through an identity correspondence, with counts -1."""
    mesh = net.mesh(shape_id)
    if config.normalize_area:
        mesh = geo.normalize_area(mesh)
    if config.remesh:
        return mesh, remesh_with_correspondence(mesh, config.count_range, rng,
                                                cache=remesh_cache)
    return mesh, RemeshResult(mesh, identity_correspondence(mesh), -1, -1, 0.0)


def _emitted_to_emitted(net, id_a, id_b, a, b):
    """Emitted-A -> emitted-B correspondence through the network; ``a``
    and ``b`` are the shapes' ``(network mesh, RemeshResult)`` pairs."""
    (net_a, res_a), (net_b, res_b) = a, b
    to_net_b = compose(res_a.to_original,
                       correspondence_between(net, id_a, id_b), net_a, net_b)
    if res_b.mesh is net_b:
        return to_net_b
    fwd_b = project_template_pair(net_b, res_b.mesh)
    return compose(to_net_b, fwd_b, net_b, res_b.mesh)


def generate_instance(spec, net, config, raycast_cache=None,
                      remesh_cache=None):
    """Fully deterministic instance for one pair spec."""
    try:
        return _generate_instance(spec, net, config, raycast_cache,
                                  remesh_cache)
    except Exception as exc:
        raise RuntimeError(
            f"instance {spec.index} ({spec.id_x} / {spec.id_y}): {exc}"
        ) from exc


def _generate_instance(spec, net, config, raycast_cache, remesh_cache):
    seed = config.global_seed
    x = _prepare_shape(
        net, spec.id_x, config, derived_rng(seed, spec.index, ROLE_REMESH_X),
        remesh_cache)
    y = _prepare_shape(
        net, spec.id_y, config, derived_rng(seed, spec.index, ROLE_REMESH_Y),
        remesh_cache)
    res_x, res_y = x[1], y[1]
    emit_x, emit_y = res_x.mesh, res_y.mesh
    full_corr = _emitted_to_emitted(net, spec.id_x, spec.id_y, x, y)

    px, py = PartialMesh.whole(emit_x), PartialMesh.whole(emit_y)
    overlap = None
    if config.setting == "partial_full":
        rng = derived_rng(seed, spec.index, ROLE_PARTIALITY)
        px = generate_partial(emit_x, rng, resolution=config.resolution,
                              cache=raycast_cache)
    elif config.setting == "partial_partial":
        back_full = _emitted_to_emitted(net, spec.id_y, spec.id_x, y, x)
        rng = derived_rng(seed, spec.index, ROLE_PARTIALITY)
        params = {"alpha": CAM_POS_REGIMES[config.cam_pos_regime],
                  "min_overlap": config.min_overlap,
                  "max_overlap": config.max_overlap,
                  "m": config.n_cam_pos}
        px, py, overlap = generate_partial_pair(
            emit_x, emit_y, full_corr, back_full, params, rng,
            resolution=config.resolution, cache=raycast_cache)

    gt = restrict(full_corr, px, py)
    shape_x, shape_y = px.mesh, py.mesh

    angles = {"x": 0.0, "y": 0.0}
    if config.one_axis_rotation:
        angles["x"] = float(derived_rng(seed, spec.index, ROLE_ROTATE_X)
                            .uniform(0.0, 2 * np.pi))
        angles["y"] = float(derived_rng(seed, spec.index, ROLE_ROTATE_Y)
                            .uniform(0.0, 2 * np.pi))
        shape_x = geo.rotate_z(shape_x, angles["x"])
        shape_y = geo.rotate_z(shape_y, angles["y"])

    path = shortest_path(net, spec.id_x, spec.id_y)
    provenance = {
        "index": spec.index, "split": spec.split, "dataset": spec.dataset,
        "id_x": spec.id_x, "id_y": spec.id_y,
        "category_x": "", "category_y": "",
        "path_length": len(path) - 1, "global_seed": seed,
        # areas of the emitted-resolution full shapes; evaluation normalizes
        # partial-target errors by sqrt(area of the full counterpart)
        "area_full_x": geo.surface_area(emit_x),
        "area_full_y": geo.surface_area(emit_y),
        "remesh_target_x": res_x.target_count,
        "remesh_achieved_x": res_x.achieved_count,
        "remesh_target_y": res_y.target_count,
        "remesh_achieved_y": res_y.achieved_count,
    }
    transforms = {"rotation_z_x": angles["x"], "rotation_z_y": angles["y"],
                  "scale_x": net.nodes[spec.id_x].scale,
                  "scale_y": net.nodes[spec.id_y].scale}
    return MatchingInstance(config.setting, shape_x, shape_y, gt,
                            transforms, overlap, provenance)


# --- serialization ---

def instance_dirname(spec):
    return f"{spec.split}_{spec.index:06d}"


def write_instance(instance, directory, store_vis=False):
    """Atomic write: ``replace_atomic`` has the directory made and filled
    under its temp name, and renames it into place only when complete."""
    def fill(tmp):
        tmp.mkdir()
        save_mesh(instance.shape_x, tmp / "x.ply")
        save_mesh(instance.shape_y, tmp / "y.ply")
        save_correspondence(instance.gt, tmp / "gt.corr")
        if store_vis:
            write_vis(instance, tmp)
        meta = {"setting": instance.setting}
        meta.update(instance.transforms)
        meta.update(instance.provenance)
        if instance.overlap is not None:
            meta["overlap_x_to_y"] = instance.overlap.frac_x_to_y
            meta["overlap_y_to_x"] = instance.overlap.frac_y_to_x
            meta["overlap_iterations"] = instance.overlap.iterations_used
            meta["overlap_within_range"] = instance.overlap.within_range
        write_key_values(tmp / "meta.txt", meta)
    replace_atomic([directory], fill)


def write_vis(instance, directory):
    """Color-transfer PLYs: target colored by normalized position, source
    colored through the ground-truth correspondence (gray = unmatched)."""
    directory = Path(directory)
    y = instance.shape_y
    span = y.vertices.max(axis=0) - y.vertices.min(axis=0)
    span[span == 0] = 1.0
    cy = (y.vertices - y.vertices.min(axis=0)) / span
    save_colored_ply(y, cy, directory / "vis_y.ply")
    pos = geo.evaluate_correspondence(instance.gt, y)
    cx = np.full((instance.shape_x.n_vertices, 3), 0.5)
    m = instance.gt.matched
    cx[m] = (pos[m] - y.vertices.min(axis=0)) / span
    save_colored_ply(instance.shape_x, np.clip(cx, 0.0, 1.0),
                     directory / "vis_x.ply")


def load_instance(directory):
    directory = Path(directory)
    meta = read_key_values(directory / "meta.txt")
    shape_x = load_mesh(directory / "x.ply")
    shape_y = load_mesh(directory / "y.ply")
    gt = load_correspondence(directory / "gt.corr")
    return shape_x, shape_y, gt, meta


def run_generation(config, net, split_manifest, output_dir, limit=None,
                   log=None):
    """Generate all instances for config.split into output_dir.

    Resumable: completed instance directories are skipped, and temporaries
    a killed run left behind are removed first. A ``config.echo`` of another
    config raises ``ConfigError``: one tree holds one config's instances.
    Failures are logged and the run continues. Returns the list of written
    (or already present) instance directory names. A ``limit`` below 1
    raises ``ValueError`` before the tree is touched.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    log = log or (lambda msg: None)
    output_dir = Path(output_dir)
    _check_echo(config, output_dir / "config.echo")
    output_dir.mkdir(parents=True, exist_ok=True)
    _remove_temporaries(output_dir)
    config.to_file(output_dir / "config.echo")
    raycast_cache = RaycastCache(
        output_dir / "cache" / "raycast",
        use=config.use_precomputed_partial_raycasting,
        update=config.update_precomputed_raycasting)
    remesh_cache = RemeshCache(
        output_dir / "cache" / "remesh",
        use=config.use_precompute_remeshing,
        update=config.update_precomputed_remeshed)
    specs = enumerate_pairs(split_manifest, config)
    if limit is not None:
        specs = specs[:limit]
    done = []
    failed = 0
    for spec in specs:
        name = instance_dirname(spec)
        dest = output_dir / name
        if dest.exists():
            done.append(name)
            log(f"skip {name} (complete)")
            continue
        t0 = time.monotonic()
        try:
            inst = generate_instance(spec, net, config,
                                     raycast_cache=raycast_cache,
                                     remesh_cache=remesh_cache)
            write_instance(inst, dest, store_vis=config.store_vis)
        except Exception as exc:
            failed += 1
            log(f"FAIL {name}: {exc}")
            continue
        done.append(name)
        log(f"done {name} in {time.monotonic() - t0:.2f}s")
    write_atomic(output_dir / "instances.manifest",
                 "\n".join(done) + ("\n" if done else ""))
    log(f"wrote {len(done)} instances ({failed} failed) to {output_dir}")
    return done


def _check_echo(config, echo):
    """Refuse to resume into a tree whose ``config.echo`` is another
    config's, naming the first key that differs."""
    old = type(config).from_file(echo) if echo.exists() else config
    for key in config.known_keys():
        if getattr(old, key) != getattr(config, key):
            raise ConfigError(
                f"{echo.parent} holds instances made with {key}="
                f"{getattr(old, key)!r}, not {getattr(config, key)!r}; "
                "choose another --output")


def _remove_temporaries(output_dir):
    """Delete the temps of ``replace_atomic`` (names matching
    ``TEMP_NAME``) that a killed run left under output_dir; no other
    file is touched."""
    for p in sorted(output_dir.rglob("*.tmp.*")):
        if TEMP_NAME.fullmatch(p.name):
            remove_path(p)
