"""Shape network: shapes as nodes, dense correspondences as edges.

Correspondences between arbitrary shapes are obtained by composing stored
edge correspondences along a minimum-hop path. Per-vertex annotations
(e.g. left/right labels) propagate from the nearest annotated node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import geometry as geo
from .corrio import load_correspondence
from .meshes import (DenseCorrespondence, Mesh, UNMATCHED, UNKNOWN_LABEL,
                     identity_correspondence)
from .meshio import load_mesh
from .textio import data_lines, key_values, parse_bool
# per-vertex integer labels, one per line; '#' comments allowed
from .textio import load_int_column as load_annotation


class NetworkError(ValueError):
    pass


@dataclass
class ShapeNode:
    """A shape of the network. A shape line's ``dataset=`` and
    ``category=`` are checked but not kept: the split manifest is where
    generation reads them."""

    id: str
    template: bool = False
    mesh_path: Path | None = None
    scale: float = 1.0
    _mesh: Mesh | None = field(default=None, repr=False)

    def mesh(self):
        if self._mesh is None:
            if self.mesh_path is None:
                raise NetworkError(f"node {self.id} has no mesh")
            m = _load(f"shape {self.id}", self.mesh_path, load_mesh,
                      self.id)
            if self.scale != 1.0:
                m = m.with_vertices(m.vertices * self.scale)
            self._mesh = m
        return self._mesh


class ShapeNetwork:
    """Immutable after build; composition results are memoized per pair.
    The one checker of a network: edges against their nodes' ids and
    meshes, every edge against its reverse, annotations against their
    node's vertex count."""

    def __init__(self, nodes, edges, annotations=None):
        self.nodes = dict(nodes)  # id -> ShapeNode
        self.edges = {}  # (a, b) -> DenseCorrespondence, both directions
        self.adjacency = {nid: set() for nid in self.nodes}
        for (a, b), corr in edges.items():
            if a not in self.nodes or b not in self.nodes:
                raise NetworkError(f"edge {a} -> {b} references unknown node")
            if corr.source_id != a or corr.target_id != b:
                raise NetworkError(
                    f"edge {a} -> {b} carries correspondence "
                    f"{corr.source_id} -> {corr.target_id}")
            try:
                corr.validate_against(self.mesh(a), self.mesh(b))
            except ValueError as exc:
                raise NetworkError(f"edge {a} -> {b}: {exc}") from None
            self.edges[(a, b)] = corr
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)
        # a path may walk any edge backwards
        for a, b in self.edges:
            if (b, a) not in self.edges:
                raise NetworkError(f"edge {a} -> {b} has no reverse {b} -> {a}")
        # id -> (n,) int64 labels, one per vertex
        self.annotations = {}
        for sid, lab in (annotations or {}).items():
            if sid not in self.nodes:
                raise NetworkError(f"annotation for unknown node {sid!r}")
            lab = np.asarray(lab, dtype=np.int64)
            n = self.mesh(sid).n_vertices
            if lab.shape != (n,):  # one label per vertex, one-dimensional
                shape = "x".join(map(str, lab.shape))
                raise NetworkError(f"annotation for {sid}: "
                                   f"{shape} labels for {n} vertices")
            self.annotations[sid] = lab
        self._pair_cache = {}

    def mesh(self, nid):
        return self.nodes[nid].mesh()

    def template_ids(self):
        return sorted(n.id for n in self.nodes.values() if n.template)

    def connectivity_report(self):
        """Connected components over the node graph, largest first, plus
        whether all template nodes share one component."""
        seen = set()
        comps = []
        for start in sorted(self.nodes):
            if start not in seen:
                comp = sorted(hop_distances(self, start))
                seen.update(comp)
                comps.append(comp)
        comps.sort(key=lambda c: (-len(c), c[0]))
        templates = set(self.template_ids())
        templates_connected = any(templates <= set(c) for c in comps) \
            if templates else True
        return {"components": comps,
                "templates_connected": templates_connected}


def hop_distances(net, start):
    """Hop count from ``start`` to every node reachable from it (BFS)."""
    dist = {start: 0}
    q = deque([start])
    while q:
        u = q.popleft()
        for v in net.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def shortest_path(net, a, b):
    """Minimum-hop node path from a to b; among equally short paths the
    lexicographically smallest node sequence is returned."""
    for nid in (a, b):
        if nid not in net.nodes:
            raise NetworkError(f"unknown shape id {nid!r}")
    # distances toward b, then walk greedily from a downhill
    dist = hop_distances(net, b)
    if a not in dist:
        raise NetworkError(f"no path between {a!r} and {b!r}")
    path = [a]
    cur = a
    while cur != b:
        cur = min(v for v in net.adjacency[cur]
                  if dist.get(v, np.inf) == dist[cur] - 1)
        path.append(cur)
    return path


def compose(c_ab, c_bc, mesh_b, mesh_c):
    """Composition A -> C of two dense correspondences.

    Each matched A-vertex lands on a face of B; that face's corners are
    mapped to 3D points on C through c_bc, blended with the barycentric
    weights, and the blend is re-projected onto C. Any UNMATCHED input
    along the way yields UNMATCHED.
    """
    if c_ab.target_id != c_bc.source_id:
        raise NetworkError(
            f"cannot compose {c_ab.source_id}->{c_ab.target_id} with "
            f"{c_bc.source_id}->{c_bc.target_id}")
    c_bc.validate_against(mesh_b, mesh_c)
    n = len(c_ab)
    faces = np.full(n, UNMATCHED, dtype=np.int64)
    weights = np.zeros((n, 3))
    # (n, 3) B-vertex ids; unmatched rows read face 0 and are masked out
    corners = mesh_b.faces[np.where(c_ab.matched, c_ab.faces, 0)]
    m = c_ab.matched & (c_bc.faces[corners] != UNMATCHED).all(axis=1)
    if m.any():
        pos_b = geo.evaluate_correspondence(c_bc, mesh_c)  # (n_b, 3)
        blended = np.einsum("ij,ijk->ik", c_ab.weights[m],
                            pos_b[corners[m]])
        f, w = geo.project_points_to_surface(blended, mesh_c)
        faces[m] = f
        weights[m] = w
    return DenseCorrespondence(c_ab.source_id, c_bc.target_id, faces, weights)


def correspondence_between(net, a, b):
    """Dense correspondence a -> b composed along the shortest path."""
    key = (a, b)
    cached = net._pair_cache.get(key)
    if cached is not None:
        return cached
    path = shortest_path(net, a, b)
    if len(path) == 1:
        out = identity_correspondence(net.mesh(a))
    else:
        out = net.edges[(path[0], path[1])]
        for u, v in zip(path[1:], path[2:]):
            out = compose(out, net.edges[(u, v)], net.mesh(u), net.mesh(v))
    net._pair_cache.setdefault(key, out)
    return out


def nearest_annotated(net, target):
    """Min-hop annotated node from target (target itself counts); ties by
    lexicographically smallest id."""
    if target not in net.nodes:
        raise NetworkError(f"unknown shape id {target!r}")
    dist = hop_distances(net, target)
    reached = [(dist[a], a) for a in net.annotations if a in dist]
    if not reached:
        raise NetworkError(f"no annotated node reachable from {target!r}")
    return min(reached)[1]


def propagate_annotation(net, target):
    """(n,) int64 labels for ``target`` pulled from the nearest annotated
    node.

    Each target vertex takes the label of the dominant-weight corner of the
    face it maps to; unmatched vertices get UNKNOWN_LABEL.
    """
    source = nearest_annotated(net, target)
    src_labels = net.annotations[source]
    if source == target:
        return src_labels.copy()
    corr = correspondence_between(net, target, source)
    snapped = geo.snap_correspondence_to_vertices(corr, net.mesh(source))
    out = np.full(len(corr), UNKNOWN_LABEL, dtype=np.int64)
    ok = snapped != UNMATCHED
    out[ok] = src_labels[snapped[ok]]
    return out


def project_template_pair(morphed_a, mesh_b):
    """Correspondence from a morphed template A onto template B: each
    A-vertex projects to its nearest surface point on B."""
    faces, bary = geo.project_points_to_surface(morphed_a.vertices, mesh_b)
    return DenseCorrespondence(morphed_a.id, mesh_b.id, faces, bary)


_SHAPE_KEYS = ("dataset", "mesh", "category", "template", "scale")


def parse_manifest(path):
    """Line-oriented network manifest.

    Directives (one per line, '#' comments):

        dataset <name> [key=value ...]   (free keys, not read)
        shape <id> dataset=<name> mesh=<path> [category=..] [template=true]
              [scale=<float>]   (dataset and category are checked, not kept)
        edge <id_a> <id_b> forward=<corr path> backward=<corr path>
        annotation <id> labels=<path>

    Relative paths resolve against the manifest's directory. An unknown
    key on a shape, edge or annotation line is an error, as are a scale
    that is not a finite number > 0 (it would mirror or collapse the
    shape), an edge from a shape to itself, a repeated shape id, edge (in
    either order) or annotation, and an edge or annotation id that no
    shape line declares; each error names ``path:line``. Shape lines may
    follow the lines that use them: ids are checked once the whole file is
    read, before any edge file is loaded.
    """
    path = Path(path)
    base = path.parent
    shapes, edges, annotations, seen, uses = {}, [], {}, set(), []
    for lineno, line in data_lines(path):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "dataset":
                key_values(parts[2:])  # free keys; nothing reads them
            elif kind == "shape":
                sid = parts[1]
                kv = key_values(parts[2:], _SHAPE_KEYS)
                scale = float(kv.get("scale", 1.0))
                if not 0 < scale < np.inf:
                    raise NetworkError("scale must be finite and > 0, "
                                       f"got {kv['scale']!r}")
                if "dataset" not in kv:
                    raise KeyError("dataset")
                shapes[sid] = ShapeNode(
                    id=sid, template=parse_bool(kv.get("template", "false")),
                    mesh_path=base / kv["mesh"] if "mesh" in kv else None,
                    scale=scale)
            elif kind == "edge":
                a, b = parts[1], parts[2]
                if a == b:
                    raise NetworkError(f"edge joins {a} to itself")
                kv = key_values(parts[3:], ("forward", "backward"))
                edges.append((a, b, base / kv["forward"],
                              base / kv["backward"]))
            elif kind == "annotation":
                kv = key_values(parts[2:], ("labels",))
                annotations[parts[1]] = base / kv["labels"]
            else:
                raise NetworkError(f"unknown directive {kind!r}")
            if kind != "dataset":
                ids = parts[1:3] if kind == "edge" else parts[1:2]
                if (kind, frozenset(ids)) in seen:
                    raise NetworkError(f"{kind} {' '.join(ids)} repeats an "
                                       "earlier line")
                seen.add((kind, frozenset(ids)))
                uses.append((lineno, kind, ids))
        except (KeyError, IndexError, ValueError) as exc:
            raise NetworkError(
                f"{path}:{lineno}: malformed {kind!r} line ({exc})") from None
    for lineno, kind, ids in uses:
        for sid in ids:
            if sid not in shapes:
                raise NetworkError(f"{path}:{lineno}: {kind} references "
                                   f"unknown shape {sid!r}")
    return {"shapes": shapes, "edges": edges, "annotations": annotations}


def _load(what, path, loader, *args):
    """``loader(path, *args)``; a file that cannot be read or parsed raises
    a NetworkError naming ``what`` and the path."""
    try:
        return loader(path, *args)
    except FileNotFoundError:
        raise NetworkError(f"{what}: missing file {path}") from None
    except (OSError, ValueError) as exc:
        msg = str(exc) if str(path) in str(exc) else f"{path}: {exc}"
        raise NetworkError(f"{what}: {msg}") from None


def build_network(manifest_path):
    """Load a manifest, its correspondence edges, and annotations into a
    validated ShapeNetwork."""
    spec = parse_manifest(manifest_path)
    edges = {}
    for a, b, fwd, bwd in spec["edges"]:
        for src, dst, p in ((a, b, fwd), (b, a, bwd)):
            edges[(src, dst)] = _load(f"edge {src} -> {dst}", p,
                                      load_correspondence)
    annotations = {sid: _load(f"annotation for {sid}", p, load_annotation)
                   for sid, p in spec["annotations"].items()}
    return ShapeNetwork(spec["shapes"], edges, annotations)
