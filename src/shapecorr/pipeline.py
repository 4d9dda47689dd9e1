"""End-to-end instance generation.

For each enumerated pair: load both shapes from the network (dataset scale
applied), optionally area-normalize, remesh to a random target resolution,
apply the partiality setting (none / source-only / overlap-constrained
pair), rotate around z, and assemble the ground-truth correspondence
between the emitted discretisations. Everything is a pure function of
(manifest, config, global_seed).

``generate_instance`` builds each value once, where it is known: a
shape's ``RemeshResult`` carries its emitted mesh, the network mesh it
maps back to and the counts, and the instance's ``meta`` is the
``meta.txt`` record in its key order.

This module owns the instance directory: ``write_instance`` writes it and
``load_instance`` reads what ``evaluate`` scores. ``run_generation``
reports the run's outcome, which ``generate``'s exit code follows.
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
from .metrics import check_setting, check_target
from .network import (compose, correspondence_between, project_template_pair,
                      shortest_path)
from .pairs import enumerate_pairs
from .scanning import (PartialMesh, RaycastCache, generate_partial,
                       generate_partial_pair, restrict)
from .textio import (TEMP_NAME, key_value_text, read_key_values, remove_path,
                     replace_atomic, write_atomic)

# the run's list of instance directories, which ``evaluate`` scores
MANIFEST_FILE = "instances.manifest"
# an instance's key=value record, the file ``inspect`` prints
META_FILE = "meta.txt"

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
    """One generated instance: the emitted shapes, the dense ground truth
    from shape_x onto shape_y, and ``meta``, the ``meta.txt`` record that
    ``write_instance`` writes as it is."""

    shape_x: Mesh
    shape_y: Mesh
    gt: DenseCorrespondence
    meta: dict

    def __post_init__(self):
        self.gt.validate_against(self.shape_x, self.shape_y)


def _prepare_shape(net, shape_id, config, rng, remesh_cache):
    """The ``RemeshResult`` of a shape, whose ``original`` is the network
    mesh (scale from the node, optionally area-normalized); with
    ``remesh=false`` it emits that mesh itself through an identity
    correspondence, with counts -1."""
    mesh = net.mesh(shape_id)
    if config.normalize_area:
        mesh = geo.normalize_area(mesh)
    if config.remesh:
        return remesh_with_correspondence(mesh, config.count_range, rng,
                                          cache=remesh_cache)
    return RemeshResult(mesh, mesh, identity_correspondence(mesh), -1, -1,
                        0.0)


def _emitted_to_emitted(net, a, b):
    """Emitted-A -> emitted-B correspondence through the network, for the
    shapes' ``RemeshResult``s ``a`` and ``b``."""
    net_a, net_b = a.original, b.original
    to_net_b = compose(a.to_original,
                       correspondence_between(net, net_a.id, net_b.id),
                       net_a, net_b)
    if b.mesh is net_b:
        return to_net_b
    fwd_b = project_template_pair(net_b, b.mesh)
    return compose(to_net_b, fwd_b, net_b, b.mesh)


def generate_instance(spec, net, config, raycast_cache=None,
                      remesh_cache=None):
    """Fully deterministic instance for one pair spec. An error is raised
    as it is; ``run_generation`` logs it with the pair's ids."""
    seed = config.global_seed
    res_x = _prepare_shape(
        net, spec.id_x, config, derived_rng(seed, spec.index, ROLE_REMESH_X),
        remesh_cache)
    res_y = _prepare_shape(
        net, spec.id_y, config, derived_rng(seed, spec.index, ROLE_REMESH_Y),
        remesh_cache)
    emit_x, emit_y = res_x.mesh, res_y.mesh
    full_corr = _emitted_to_emitted(net, res_x, res_y)

    px, py = PartialMesh.whole(emit_x), PartialMesh.whole(emit_y)
    overlap = None
    if config.setting == "partial_full":
        rng = derived_rng(seed, spec.index, ROLE_PARTIALITY)
        px = generate_partial(emit_x, rng, resolution=config.resolution,
                              cache=raycast_cache)
    elif config.setting == "partial_partial":
        back_full = _emitted_to_emitted(net, res_y, res_x)
        rng = derived_rng(seed, spec.index, ROLE_PARTIALITY)
        px, py, overlap = generate_partial_pair(
            emit_x, emit_y, full_corr, back_full, rng, config.resolution,
            CAM_POS_REGIMES[config.cam_pos_regime],
            (config.min_overlap, config.max_overlap), config.n_cam_pos,
            cache=raycast_cache)

    gt = restrict(full_corr, px, py)
    shape_x, shape_y = px.mesh, py.mesh
    angle_x = angle_y = 0.0
    if config.one_axis_rotation:
        angle_x = float(derived_rng(seed, spec.index, ROLE_ROTATE_X)
                        .uniform(0.0, 2 * np.pi))
        angle_y = float(derived_rng(seed, spec.index, ROLE_ROTATE_Y)
                        .uniform(0.0, 2 * np.pi))
        shape_x = geo.rotate_z(shape_x, angle_x)
        shape_y = geo.rotate_z(shape_y, angle_y)

    meta = {
        "setting": config.setting,
        "rotation_z_x": angle_x, "rotation_z_y": angle_y,
        "scale_x": net.nodes[spec.id_x].scale,
        "scale_y": net.nodes[spec.id_y].scale,
        "index": spec.index, "split": spec.split, "dataset": spec.dataset,
        "id_x": spec.id_x, "id_y": spec.id_y,
        "category_x": "", "category_y": "",
        "path_length": len(shortest_path(net, spec.id_x, spec.id_y)) - 1,
        "global_seed": seed,
        # areas of the emitted-resolution full shapes; evaluation normalizes
        # partial-target errors by sqrt(area of the full counterpart)
        "area_full_x": geo.surface_area(emit_x),
        "area_full_y": geo.surface_area(emit_y),
        "remesh_target_x": res_x.target_count,
        "remesh_achieved_x": res_x.achieved_count,
        "remesh_target_y": res_y.target_count,
        "remesh_achieved_y": res_y.achieved_count,
    }
    if overlap is not None:
        meta.update(overlap_x_to_y=overlap.frac_x_to_y,
                    overlap_y_to_x=overlap.frac_y_to_x,
                    overlap_iterations=overlap.iterations_used,
                    overlap_within_range=overlap.within_range)
    return MatchingInstance(shape_x, shape_y, gt, meta)


# --- serialization ---

def instance_dirname(spec):
    return f"{spec.split}_{spec.index:06d}"


def write_instance(instance, directory, store_vis=False):
    """Atomic write: ``replace_atomic`` has the directory made and filled
    under its temp name, and renames it into place only when complete;
    the files inside it are plain writes, renamed with it."""
    def fill(tmp):
        tmp.mkdir()
        save_mesh(instance.shape_x, tmp / "x.ply")
        save_mesh(instance.shape_y, tmp / "y.ply")
        save_correspondence(instance.gt, tmp / "gt.corr")
        if store_vis:
            write_vis(instance, tmp)
        (tmp / META_FILE).write_text(key_value_text(instance.meta))
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
    """What ``evaluate`` scores against, checked: ``(shape_y, gt, setting,
    area)`` from ``y.ply``, ``gt.corr`` and the setting and full target
    area of ``meta.txt``; ``x.ply`` is not read."""
    directory = Path(directory)
    meta = read_key_values(directory / META_FILE)
    try:
        setting, area = meta["setting"], float(meta["area_full_y"])
    except KeyError as exc:
        raise ValueError(f"{META_FILE} has no {exc} entry") from None
    check_setting(setting)
    shape_y = load_mesh(directory / "y.ply")
    gt = load_correspondence(directory / "gt.corr")
    check_target(gt, shape_y, area)
    return shape_y, gt, setting, area


def run_generation(config, net, split_manifest, output_dir, limit=None,
                   log=None):
    """Generate all instances for config.split into output_dir.

    Resumable: completed instance directories are skipped, and temporaries
    a killed run left behind are removed first. A ``config.echo`` of another
    config raises ``ConfigError``: one tree holds one config's instances.
    Failures are logged and the run continues. Returns ``(done, failed)``:
    the list of written (or already present) instance directory names, and
    the number of instances that failed. A ``limit`` below 1 raises
    ``ValueError`` before the tree is touched.
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
    specs = enumerate_pairs(split_manifest, config)[:limit]
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
            log(f"FAIL {name}: {spec.id_x} / {spec.id_y}: {exc}")
            continue
        done.append(name)
        log(f"done {name} in {time.monotonic() - t0:.2f}s")
    write_atomic(output_dir / MANIFEST_FILE,
                 "\n".join(done) + ("\n" if done else ""))
    log(f"wrote {len(done)} instances ({failed} failed) to {output_dir}")
    return done, failed


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
