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
                     VertexLabels, identity_correspondence)
from .meshio import load_mesh
from .textio import load_int_column


class NetworkError(ValueError):
    pass


@dataclass
class ShapeNode:
    id: str
    dataset: str
    category: str = ""
    template: bool = False
    mesh_path: Path | None = None
    scale: float = 1.0
    _mesh: Mesh | None = field(default=None, repr=False)

    def mesh(self):
        if self._mesh is None:
            if self.mesh_path is None:
                raise NetworkError(f"node {self.id} has no mesh")
            m = load_mesh(self.mesh_path, id=self.id)
            if self.scale != 1.0:
                m = m.with_vertices(m.vertices * self.scale)
            self._mesh = m
        return self._mesh


class ShapeNetwork:
    """Immutable after build; composition results are memoized per pair."""

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
            self.edges[(a, b)] = corr
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)
        self.annotations = dict(annotations or {})
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
    m = c_ab.matched.copy()
    if m.any():
        b_corners = mesh_b.faces[c_ab.faces[m]]  # (k, 3) B-vertex ids
        corner_ok = (c_bc.faces[b_corners] != UNMATCHED).all(axis=1)
        m[np.flatnonzero(m)[~corner_ok]] = False
    if m.any():
        b_corners = mesh_b.faces[c_ab.faces[m]]
        pos_b = geo.evaluate_correspondence(c_bc, mesh_c)  # (n_b, 3)
        blended = np.einsum("ij,ijk->ik", c_ab.weights[m], pos_b[b_corners])
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
    """Labels for ``target`` pulled from the nearest annotated node.

    Each target vertex takes the label of the dominant-weight vertex of its
    corresponding SurfacePoint; unmatched vertices get UNKNOWN_LABEL.
    """
    source = nearest_annotated(net, target)
    src_labels = net.annotations[source].labels
    if source == target:
        return VertexLabels(target, src_labels.copy())
    corr = correspondence_between(net, target, source)
    snapped = geo.snap_correspondence_to_vertices(corr, net.mesh(source))
    out = np.full(len(corr), UNKNOWN_LABEL, dtype=np.int64)
    ok = snapped != UNMATCHED
    out[ok] = src_labels[snapped[ok]]
    return VertexLabels(target, out)


def project_template_pair(morphed_a, mesh_b, missing_mask_a=None):
    """Correspondence from a morphed template A onto template B.

    Each A-vertex projects to its nearest surface point on B; vertices in
    ``missing_mask_a`` (regions absent from B) are emitted UNMATCHED.
    """
    faces, bary = geo.project_points_to_surface(morphed_a.vertices, mesh_b)
    if missing_mask_a is not None:
        missing = np.asarray(sorted(missing_mask_a), dtype=np.int64)
        faces = faces.copy()
        faces[missing] = UNMATCHED
        bary = bary.copy()
        bary[missing] = 0.0
    return DenseCorrespondence(morphed_a.id, mesh_b.id, faces, bary)


def load_annotation(path, shape_id):
    """Per-vertex integer labels, one per line; '#' comments allowed."""
    return VertexLabels(shape_id, load_int_column(path))


def parse_manifest(path):
    """Line-oriented network manifest.

    Directives (one per line, '#' comments):

        dataset <name> [key=value ...]
        shape <id> dataset=<name> mesh=<path> [category=..] [template=true]
              [scale=<float>]
        edge <id_a> <id_b> forward=<corr path> backward=<corr path>
        annotation <id> labels=<path>

    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    datasets, shapes, edges, annotations = {}, {}, [], {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "dataset":
                datasets[parts[1]] = _kv(parts[2:])
            elif kind == "shape":
                sid = parts[1]
                kv = _kv(parts[2:])
                shapes[sid] = ShapeNode(
                    id=sid, dataset=kv["dataset"],
                    category=kv.get("category", ""),
                    template=kv.get("template", "false").lower() == "true",
                    mesh_path=base / kv["mesh"] if "mesh" in kv else None,
                    scale=float(kv.get("scale", 1.0)))
            elif kind == "edge":
                a, b = parts[1], parts[2]
                kv = _kv(parts[3:])
                edges.append((a, b, base / kv["forward"],
                              base / kv["backward"]))
            elif kind == "annotation":
                kv = _kv(parts[2:])
                annotations[parts[1]] = base / kv["labels"]
            else:
                raise NetworkError(f"unknown directive {kind!r}")
        except (KeyError, IndexError) as exc:
            raise NetworkError(
                f"{path}:{lineno}: malformed {kind!r} line ({exc})") from None
    return {"datasets": datasets, "shapes": shapes, "edges": edges,
            "annotations": annotations}


def _kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetworkError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def build_network(manifest_path):
    """Load a manifest, its correspondence edges, and annotations into a
    validated ShapeNetwork."""
    spec = parse_manifest(manifest_path)
    nodes = spec["shapes"]
    edges = {}
    for a, b, fwd, bwd in spec["edges"]:
        for nid in (a, b):
            if nid not in nodes:
                raise NetworkError(f"edge {a} -> {b}: unknown node {nid!r}")
        for src, dst, p in ((a, b, fwd), (b, a, bwd)):
            if not Path(p).exists():
                raise NetworkError(f"edge {src} -> {dst}: missing file {p}")
            corr = load_correspondence(p)
            if (corr.source_id, corr.target_id) != (src, dst):
                raise NetworkError(
                    f"edge {src} -> {dst}: file {p} maps "
                    f"{corr.source_id} -> {corr.target_id}")
            try:
                corr.validate_against(nodes[src].mesh(), nodes[dst].mesh())
            except ValueError as exc:
                raise NetworkError(f"edge {src} -> {dst}: {exc}") from None
            edges[(src, dst)] = corr
    annotations = {}
    for sid, p in spec["annotations"].items():
        if sid not in nodes:
            raise NetworkError(f"annotation for unknown node {sid!r}")
        if not Path(p).exists():
            raise NetworkError(f"annotation for {sid}: missing file {p}")
        lab = load_annotation(p, sid)
        if len(lab.labels) != nodes[sid].mesh().n_vertices:
            raise NetworkError(
                f"annotation for {sid}: {len(lab.labels)} labels for "
                f"{nodes[sid].mesh().n_vertices} vertices")
        annotations[sid] = lab
    return ShapeNetwork(nodes, edges, annotations)
