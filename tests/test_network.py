import re

import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr.corrio import save_correspondence
from shapecorr.meshes import (DenseCorrespondence, Mesh, UNKNOWN_LABEL,
                              UNMATCHED, identity_correspondence)
from shapecorr.meshio import save_mesh
from shapecorr.network import (NetworkError, ShapeNetwork, ShapeNode,
                               build_network, compose, correspondence_between,
                               load_annotation, nearest_annotated, project_template_pair,
                               propagate_annotation, shortest_path)

from conftest import exhaustive_nearest_points, random_rigid
from shapes import icosphere


def make_node(nid, mesh):
    node = ShapeNode(id=nid, dataset="test")
    node._mesh = Mesh(mesh.vertices, mesh.faces, id=nid)
    return node


def vertex_permutation_corr(src_id, dst_id, perm, dst_mesh):
    """Exact vertex-to-vertex correspondence along a permutation."""
    ic = identity_correspondence(dst_mesh)
    return DenseCorrespondence(src_id, dst_id, ic.faces[perm], ic.weights[perm])


def chain_network(n=3, seed=0, perms=None):
    """n isometric copies of an icosphere in a path graph A0-A1-...-A(n-1),
    with exact vertex-bijective edge correspondences."""
    base = icosphere(2)
    rng = np.random.default_rng(seed)
    nodes = {}
    meshes = []
    nv = base.n_vertices
    perms = perms or [rng.permutation(nv) for _ in range(n)]
    for i in range(n):
        T = random_rigid(rng)
        v = T.apply(base.vertices)[np.argsort(perms[i])]
        f = perms[i][base.faces]
        meshes.append(Mesh(v, f, id=f"s{i}"))
        nodes[f"s{i}"] = make_node(f"s{i}", meshes[i])
    edges = {}
    for i in range(n - 1):
        a, b = f"s{i}", f"s{i+1}"
        # vertex j of mesh i corresponds to vertex of mesh i+1 carrying the
        # same base vertex: perm_{i+1}[argsort(perm_i)[j]]
        fwd_map = perms[i + 1][np.argsort(perms[i])]
        bwd_map = perms[i][np.argsort(perms[i + 1])]
        edges[(a, b)] = vertex_permutation_corr(a, b, fwd_map, meshes[i + 1])
        edges[(b, a)] = vertex_permutation_corr(b, a, bwd_map, meshes[i])
    return ShapeNetwork(nodes, edges), meshes, perms


class TestShortestPath:
    def net(self):
        m = icosphere(1)
        nodes = {k: make_node(k, m) for k in "abcdef"}
        ic = identity_correspondence(m)

        def e(x, y):
            return (x, y), DenseCorrespondence(x, y, ic.faces, ic.weights)

        edges = dict([e("a", "b"), e("b", "a"), e("b", "c"), e("c", "b"),
                      e("a", "d"), e("d", "a"), e("d", "c"), e("c", "d"),
                      e("c", "f"), e("f", "c")])
        return ShapeNetwork(nodes, edges)

    def test_single_node(self):
        assert shortest_path(self.net(), "a", "a") == ["a"]

    def test_chain(self):
        assert shortest_path(self.net(), "a", "f") in (
            ["a", "b", "c", "f"], ["a", "d", "c", "f"])
        # lexicographic tie-break picks the b-branch
        assert shortest_path(self.net(), "a", "f") == ["a", "b", "c", "f"]

    def test_no_path(self):
        net = self.net()
        with pytest.raises(NetworkError):
            shortest_path(net, "a", "e")

    def test_unknown_id(self):
        with pytest.raises(NetworkError):
            shortest_path(self.net(), "a", "zz")

    def test_hop_count_matches_floyd_warshall(self):
        rng = np.random.default_rng(77)
        n = 20
        m = icosphere(1)
        ids = [f"n{i:02d}" for i in range(n)]
        nodes = {i: make_node(i, m) for i in ids}
        ic = identity_correspondence(m)
        adj = np.zeros((n, n), dtype=bool)
        edges = {}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i, j in [pairs[k] for k in rng.choice(len(pairs), 40, replace=False)]:
            adj[i, j] = adj[j, i] = True
            edges[(ids[i], ids[j])] = DenseCorrespondence(
                ids[i], ids[j], ic.faces, ic.weights)
            edges[(ids[j], ids[i])] = DenseCorrespondence(
                ids[j], ids[i], ic.faces, ic.weights)
        net = ShapeNetwork(nodes, edges)
        # Floyd-Warshall hop oracle
        d = np.where(adj, 1.0, np.inf)
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
        for i in range(n):
            for j in range(n):
                if np.isfinite(d[i, j]):
                    path = shortest_path(net, ids[i], ids[j])
                    assert len(path) - 1 == int(d[i, j])
                else:
                    with pytest.raises(NetworkError):
                        shortest_path(net, ids[i], ids[j])


class TestCompose:
    def test_identity_right_composition(self):
        net, meshes, _ = chain_network(2)
        c_ab = net.edges[("s0", "s1")]
        ident = identity_correspondence(meshes[1])
        out = compose(c_ab, ident, meshes[1], meshes[1])
        pos_direct = geo.evaluate_correspondence(c_ab, meshes[1])
        pos_composed = geo.evaluate_correspondence(out, meshes[1])
        np.testing.assert_allclose(pos_composed, pos_direct, atol=1e-9)

    def test_all_unmatched_absorbs(self):
        net, meshes, _ = chain_network(2)
        n = meshes[0].n_vertices
        empty = DenseCorrespondence("s0", "s1", np.full(n, UNMATCHED),
                                    np.zeros((n, 3)))
        out = compose(empty, net.edges[("s1", "s0")], meshes[1], meshes[0])
        assert not out.matched.any()

    def test_partial_unmatched_absorbs(self):
        net, meshes, _ = chain_network(3)
        c_ab = net.edges[("s0", "s1")]
        c_bc = net.edges[("s1", "s2")]
        # knock out one target B-vertex; all A-verts landing on its faces drop
        victim = 5
        faces = c_bc.faces.copy()
        faces[victim] = UNMATCHED
        c_bc2 = DenseCorrespondence("s1", "s2", faces, c_bc.weights)
        out = compose(c_ab, c_bc2, meshes[1], meshes[2])
        snapped = geo.snap_correspondence_to_vertices(c_ab, meshes[1])
        affected = snapped == victim
        assert (~out.matched[affected]).all()

    def test_chain_equals_permutation_composition(self):
        net, meshes, perms = chain_network(3)
        out = correspondence_between(net, "s0", "s2")
        # oracle: composition of the two vertex bijections
        m01 = perms[1][np.argsort(perms[0])]
        m12 = perms[2][np.argsort(perms[1])]
        expect = m12[m01]
        snapped = geo.snap_correspondence_to_vertices(out, meshes[2])
        np.testing.assert_array_equal(snapped, expect)
        pos = geo.evaluate_correspondence(out, meshes[2])
        np.testing.assert_allclose(pos, meshes[2].vertices[expect], atol=1e-9)

    def test_id_mismatch_rejected(self):
        net, meshes, _ = chain_network(3)
        with pytest.raises(NetworkError):
            compose(net.edges[("s0", "s1")], net.edges[("s0", "s1")],
                    meshes[0], meshes[1])


class TestCorrespondenceBetween:
    def test_adjacent_returns_stored_edge(self):
        net, _, _ = chain_network(2)
        assert correspondence_between(net, "s0", "s1") is net.edges[("s0", "s1")]

    def test_self_is_identity(self):
        net, meshes, _ = chain_network(2)
        out = correspondence_between(net, "s0", "s0")
        pos = geo.evaluate_correspondence(out, meshes[0])
        np.testing.assert_allclose(pos, meshes[0].vertices, atol=1e-9)

    def test_chain_matches_manual_compose(self):
        net, meshes, _ = chain_network(3)
        out = correspondence_between(net, "s0", "s2")
        manual = compose(net.edges[("s0", "s1")], net.edges[("s1", "s2")],
                         meshes[1], meshes[2])
        assert out == manual

    def test_memoized(self):
        net, _, _ = chain_network(3)
        assert correspondence_between(net, "s0", "s2") is \
            correspondence_between(net, "s0", "s2")


class TestProjectTemplatePair:
    def test_identical_meshes_zero_distance(self):
        m = icosphere(2)
        out = project_template_pair(m, m)
        pos = geo.evaluate_correspondence(out, m)
        np.testing.assert_allclose(pos, m.vertices, atol=1e-9)
        assert out.matched.all()

    def test_matches_brute_force_residuals(self):
        a = icosphere(2)
        rng = np.random.default_rng(5)
        jig = Mesh(a.vertices + rng.normal(scale=0.01, size=a.vertices.shape),
                   a.faces, id="jig")
        b = icosphere(3)
        assert project_template_pair(jig, b) == DenseCorrespondence(
            "jig", b.id, *exhaustive_nearest_points(b, jig.vertices))


class TestPropagateAnnotation:
    def test_self_annotated(self):
        net, meshes, _ = chain_network(2)
        lab = np.arange(meshes[0].n_vertices) % 2
        net.annotations["s0"] = lab
        out = propagate_annotation(net, "s0")
        np.testing.assert_array_equal(out, lab)

    def test_exact_copy_through_bijection(self):
        net, meshes, perms = chain_network(2)
        # left/right split of the base sphere, pushed through each perm
        lab1 = (meshes[1].vertices[:, 0] > 0).astype(np.int64)
        net.annotations["s1"] = lab1
        out = propagate_annotation(net, "s0")
        # oracle: the edge is an exact vertex bijection m01, so labels copy
        m01 = perms[1][np.argsort(perms[0])]
        np.testing.assert_array_equal(out, lab1[m01])

    def test_nearest_annotated_tiebreak_and_errors(self):
        net, meshes, _ = chain_network(3)
        with pytest.raises(NetworkError):
            propagate_annotation(net, "s0")
        net.annotations["s2"] = np.zeros(meshes[2].n_vertices, dtype=np.int64)
        assert nearest_annotated(net, "s0") == "s2"
        net.annotations["s1"] = np.ones(meshes[1].n_vertices, dtype=np.int64)
        assert nearest_annotated(net, "s0") == "s1"

    def test_unmatched_gets_unknown(self):
        net, meshes, _ = chain_network(2)
        faces = net.edges[("s0", "s1")].faces.copy()
        faces[3] = UNMATCHED
        net.edges[("s0", "s1")] = DenseCorrespondence(
            "s0", "s1", faces, net.edges[("s0", "s1")].weights)
        net.annotations["s1"] = np.zeros(meshes[1].n_vertices, dtype=np.int64)
        out = propagate_annotation(net, "s0")
        assert out[3] == UNKNOWN_LABEL
        assert (out[np.arange(len(out)) != 3] == 0).all()


class TestBuildNetwork:
    def write_fixture(self, tmp_path, corrupt_edge=False):
        m0 = icosphere(1)
        a = Mesh(m0.vertices, m0.faces, id="A")
        b = Mesh(m0.vertices + [0.0, 0.0, 2.0], m0.faces, id="B")
        c = Mesh(m0.vertices + [2.0, 0.0, 0.0], m0.faces, id="C")
        for mesh, name in ((a, "a"), (b, "b"), (c, "c")):
            save_mesh(mesh, tmp_path / f"{name}.ply")
        ic = identity_correspondence(m0)

        def corr(x, y, n=None):
            f, w = ic.faces, ic.weights
            if n is not None:  # wrong-length correspondence
                f, w = f[:n], w[:n]
            return DenseCorrespondence(x, y, f, w)

        save_correspondence(corr("A", "B"), tmp_path / "ab.corr")
        save_correspondence(corr("B", "A"), tmp_path / "ba.corr")
        save_correspondence(corr("B", "C"), tmp_path / "bc.corr")
        save_correspondence(corr("C", "B", 5 if corrupt_edge else None),
                            tmp_path / "cb.corr")
        (tmp_path / "a.labels").write_text(
            "\n".join(["1"] * m0.n_vertices) + "\n")
        (tmp_path / "net.manifest").write_text("\n".join([
            "# three-shape fixture",
            "dataset test type=synthetic",
            "shape A dataset=test mesh=a.ply template=true",
            "shape B dataset=test mesh=b.ply template=true",
            "shape C dataset=test mesh=c.ply",
            "edge A B forward=ab.corr backward=ba.corr",
            "edge B C forward=bc.corr backward=cb.corr",
            "annotation A labels=a.labels",
        ]) + "\n")
        return tmp_path / "net.manifest"

    def test_three_shape_chain(self, tmp_path):
        net = build_network(self.write_fixture(tmp_path))
        assert shortest_path(net, "A", "C") == ["A", "B", "C"]
        report = net.connectivity_report()
        assert report["templates_connected"]
        assert report["components"] == [["A", "B", "C"]]
        out = propagate_annotation(net, "C")
        assert (out == 1).all()

    def test_wrong_vertex_count_names_edge(self, tmp_path):
        manifest = self.write_fixture(tmp_path, corrupt_edge=True)
        with pytest.raises(NetworkError, match="C -> B"):
            build_network(manifest)

    def test_missing_file_reported(self, tmp_path):
        manifest = self.write_fixture(tmp_path)
        (tmp_path / "bc.corr").unlink()
        with pytest.raises(NetworkError, match="missing file"):
            build_network(manifest)

    def test_unknown_directive(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("frobnicate A B\n")
        with pytest.raises(NetworkError, match="unknown directive"):
            build_network(p)

    def test_bare_token_names_line_and_token(self, tmp_path):
        p = self.write_fixture(tmp_path)
        lines = p.read_text().splitlines()
        lines[3] = "shape A dataset=test a.ply template=true"
        p.write_text("\n".join(lines) + "\n")
        want = (re.escape(f"{p}:4: ") + ".*"
                + re.escape("expected key=value, got 'a.ply'"))
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    @pytest.mark.parametrize("value,template", [
        ("yes", True), ("1", True), ("On", True), ("no", False),
        ("0", False)])
    def test_template_takes_the_config_booleans(self, tmp_path, value,
                                                template):
        p = self.write_fixture(tmp_path)
        p.write_text(p.read_text().replace(
            "mesh=c.ply", f"mesh=c.ply template={value}"))
        net = build_network(p)
        assert net.nodes["C"].template is template
        assert ("C" in net.template_ids()) is template

    def test_template_typo_names_line(self, tmp_path):
        """A misspelt boolean used to load as a non-template node."""
        p = self.write_fixture(tmp_path)
        p.write_text(p.read_text().replace(
            "mesh=c.ply", "mesh=c.ply template=ture"))
        want = (re.escape(f"{p}:5: ") + ".*"
                + re.escape("expected boolean, got 'ture'"))
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    @pytest.mark.parametrize("name,text,what", [
        ("ba.corr", None, "edge B -> A"),
        ("cb.corr", b"not a correspondence", "edge C -> B"),
        ("a.labels", b"1\n2.5\n", "annotation for A")])
    def test_bad_file_names_edge_or_annotation(self, tmp_path, name, text,
                                               what):
        """A file that cannot be parsed raised a bare ValueError."""
        manifest = self.write_fixture(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-7] if text is None else text)
        with pytest.raises(NetworkError) as info:
            build_network(manifest)
        assert str(info.value).startswith(f"{what}: {path}")

    @pytest.mark.parametrize("old,new,key,valid", [
        ("mesh=a.ply template=true", "mesh=a.ply templat=true", "templat",
         "dataset, mesh, category, template, scale"),
        ("forward=ab.corr", "forwrd=ab.corr", "forwrd", "forward, backward"),
        ("labels=a.labels", "label=a.labels", "label", "labels")])
    def test_unknown_key_names_line_and_valid_keys(self, tmp_path, old, new,
                                                   key, valid):
        """A misspelt key used to be dropped: ``scal=2.0`` loaded the
        shape at scale 1."""
        p = self.write_fixture(tmp_path)
        text = p.read_text()
        lineno = text[:text.index(old)].count("\n") + 1
        p.write_text(text.replace(old, new))
        want = (re.escape(f"{p}:{lineno}: ") + ".*"
                + re.escape(f"unknown key {key!r}; valid: {valid}"))
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "-0.0"])
    def test_scale_must_be_finite_and_positive(self, tmp_path, scale):
        """A NaN or inf scale loaded non-finite positions, 0 collapsed the
        shape to a point, and -1 mirrored it, so left/right labels landed
        on the wrong side."""
        p = self.write_fixture(tmp_path)
        p.write_text(p.read_text().replace("mesh=c.ply",
                                           f"mesh=c.ply scale={scale}"))
        want = (re.escape(f"{p}:5: ") + ".*" + re.escape(
            f"scale must be finite and > 0, got {scale!r}"))
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    @pytest.mark.parametrize("line,lineno,what", [
        ("shape A dataset=other mesh=c.ply", 9, "shape A"),
        ("edge B A forward=ba.corr backward=ab.corr", 9, "edge B A"),
        ("edge A B forward=ab.corr backward=ba.corr", 9, "edge A B"),
        ("annotation A labels=a.labels", 9, "annotation A")])
    def test_repeated_line_names_line(self, tmp_path, line, lineno, what):
        """A repeated shape, edge (in either order) or annotation line used
        to replace the earlier one without a word."""
        p = self.write_fixture(tmp_path)
        p.write_text(p.read_text() + line + "\n")
        want = (re.escape(f"{p}:{lineno}: ") + ".*"
                + re.escape(f"{what} repeats an earlier line"))
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    def test_self_edge_names_line(self, tmp_path):
        """An edge from a shape to itself used to load its backward file
        as the edge, drop the forward file, and make the shape its own
        neighbour."""
        p = self.write_fixture(tmp_path)
        p.write_text(p.read_text()
                     + "edge C C forward=bc.corr backward=cb.corr\n")
        want = (re.escape(f"{p}:9: ") + ".*"
                + re.escape("edge joins C to itself"))
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    @pytest.mark.parametrize("line,kind", [
        ("edge A Z forward=az.corr backward=za.corr", "edge"),
        ("annotation Z labels=z.labels", "annotation")])
    def test_unknown_id_names_line_before_files_load(self, tmp_path, line,
                                                     kind):
        """An unknown id used to be reported without its line, and only
        after the line's files were read: here they do not exist."""
        p = self.write_fixture(tmp_path)
        p.write_text(p.read_text() + line + "\n")
        want = re.escape(f"{p}:9: {kind} references unknown shape 'Z'")
        with pytest.raises(NetworkError, match=want):
            build_network(p)

    def test_shape_line_may_follow_its_edges(self, tmp_path):
        p = self.write_fixture(tmp_path)
        lines = p.read_text().splitlines()
        lines.append(lines.pop(4))  # shape C after the edge B C
        p.write_text("\n".join(lines) + "\n")
        assert shortest_path(build_network(p), "A", "C") == ["A", "B", "C"]


class TestNetworkChecks:
    """ShapeNetwork checks a network however it was built."""

    def nodes(self):
        m = icosphere(1)
        return m, {nid: make_node(nid, m) for nid in "ab"}

    def test_wrong_length_edge(self):
        m, nodes = self.nodes()
        ic = identity_correspondence(m)
        short = DenseCorrespondence("a", "b", ic.faces[:5], ic.weights[:5])
        with pytest.raises(NetworkError, match="edge a -> b: correspondence "
                                               "length 5"):
            ShapeNetwork(nodes, {("a", "b"): short})

    def test_edge_without_reverse(self):
        """An edge whose reverse is missing used to build, link both nodes
        and fail later, walked backwards, with a bare ``KeyError``."""
        m, nodes = self.nodes()
        ic = identity_correspondence(m)
        corr = DenseCorrespondence("a", "b", ic.faces, ic.weights)
        with pytest.raises(NetworkError,
                           match="edge a -> b has no reverse b -> a"):
            ShapeNetwork(nodes, {("a", "b"): corr})

    def test_edge_to_unknown_node(self):
        m, nodes = self.nodes()
        ic = identity_correspondence(m)
        corr = DenseCorrespondence("a", "z", ic.faces, ic.weights)
        with pytest.raises(NetworkError, match="unknown node"):
            ShapeNetwork(nodes, {("a", "z"): corr})

    @pytest.mark.parametrize("sid,n,message", [
        ("z", 42, "annotation for unknown node 'z'"),
        ("a", 5, "annotation for a: 5 labels for 42 vertices"),
        ("a", (42, 1), "annotation for a: 42x1 labels for 42 vertices")])
    def test_bad_annotation(self, sid, n, message):
        _, nodes = self.nodes()
        with pytest.raises(NetworkError, match=re.escape(message)):
            ShapeNetwork(nodes, {}, {sid: np.zeros(n, dtype=np.int64)})


def test_load_annotation_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "s.labels"
    p.write_text("# left/right\n0\n\n1  # right\n-1\n")
    labels = load_annotation(p)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, [0, 1, -1])


@pytest.mark.parametrize("text", ["0 1\n", "0\n1 1\n", "0\n0.5\n", "left\n"])
def test_load_annotation_not_one_integer_per_line(tmp_path, text):
    p = tmp_path / "s.labels"
    p.write_text(text)
    with pytest.raises(ValueError):
        load_annotation(p)
