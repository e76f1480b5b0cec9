"""Tests for mesh containers, quality reporting, smoothing, and mesh JSON."""

import csv
import dataclasses
import gc
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import polyflow as pf
from polyflow import elements, mesh


def _single(kind, vertices, fixed=()):
    n = pf.VERTEX_COUNT[kind]
    return pf.Mesh(vertices=vertices, elements=((kind, tuple(range(n))),),
                   fixed=frozenset(fixed))


def _corner_tets():
    # two disjoint translated copies of the unit corner tetrahedron
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                  [2, 0, 0], [3, 0, 0], [2, 1, 0], [2, 0, 1]], float)
    return pf.Mesh(vertices=v,
                   elements=(("tetrahedron", (0, 1, 2, 3)),
                             ("tetrahedron", (4, 5, 6, 7))),
                   fixed=frozenset())


def _mmv_of_projected(m):
    return pf.mesh_mean_volume(m.with_vertices(pf.pi(m.vertices)))


def _mixed_mesh():
    # all five kinds around a unit cube, sharing vertices, in an element
    # order that interleaves the kinds; jittered so no field is symmetric
    v = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        [0.5, 0.5, 1.7], [2, 0.5, 0], [2, 0.5, 1], [-0.8, 0.4, 0.4],
        [0, 0, -1.4], [0.7, 0, -0.7], [0, 0.7, -0.7], [-0.7, 0, -0.7],
        [0, -0.7, -0.7], [0.5, 1.8, 0.5],
    ], float)
    v += np.random.default_rng(7).uniform(-0.08, 0.08, v.shape)
    elements = (("hexahedron", (0, 1, 2, 3, 4, 5, 6, 7)),
                ("tetrahedron", (0, 4, 3, 11)),
                ("pyramid", (4, 5, 6, 7, 8)),
                ("prism", (1, 9, 2, 5, 10, 6)),
                ("octahedron", (0, 13, 14, 15, 16, 12)),
                ("tetrahedron", (2, 3, 7, 17)))
    return pf.Mesh(vertices=v, elements=elements, fixed=frozenset({1, 8, 12, 15}))


def _hex_grid(cells, jitter, seed):
    # structured grid, canonical hexahedron numbering, boundary fixed
    m = cells + 1
    k, j, i = np.meshgrid(range(m), range(m), range(m), indexing="ij")
    v = np.stack([i, j, k], axis=-1).reshape(-1, 3).astype(float)
    boundary = (v.min(axis=1) == 0) | (v.max(axis=1) == cells)
    rng = np.random.default_rng(seed)
    v[~boundary] += rng.uniform(-jitter, jitter, (int((~boundary).sum()), 3))
    c = np.arange(m ** 3).reshape(m, m, m)[:-1, :-1, :-1].ravel()
    bottom = [c, c + 1, c + 1 + m, c + m]
    nodes = np.stack(bottom + [b + m * m for b in bottom], axis=1)
    return pf.Mesh(vertices=v,
                   elements=tuple(("hexahedron", tuple(row)) for row in nodes.tolist()),
                   fixed=frozenset(np.flatnonzero(boundary).tolist()))


def _cell_corner(a, b, c):
    # the corner (a, b, c) of a unit cell, numbered as the hexahedron's
    return (0, 1, 3, 2)[a + 2 * b] + 4 * c


def _kuhn_tets():
    # the six tets of the Kuhn split, one per path from corner 0 to corner
    # 6 along the axes, each positively oriented
    tets = []
    for order in itertools.permutations(range(3)):
        path = [np.zeros(3, int)]
        for axis in order:
            path.append(path[-1] + np.eye(3, dtype=int)[axis])
        if pf.tet_signed_volume(*path) < 0:
            path[:2] = path[1::-1]
        tets.append(("tetrahedron", tuple(_cell_corner(*q) for q in path)))
    return tuple(tets)


# Splits of a unit cell into elements, by corner number.
_CELL_HEXAHEDRON = (("hexahedron", tuple(range(8))),)
_CELL_PRISM_PAIR = (("prism", (0, 1, 2, 4, 5, 6)), ("prism", (0, 2, 3, 4, 6, 7)))
_CELL_KUHN = _kuhn_tets()


def _cell_grid(cells, jitter, seed, split):
    # the vertices of _hex_grid, each cell (x, y, z) split into split(x)
    m = cells + 1
    k, j, i = np.meshgrid(range(m), range(m), range(m), indexing="ij")
    v = np.stack([i, j, k], axis=-1).reshape(-1, 3).astype(float)
    boundary = (v.min(axis=1) == 0) | (v.max(axis=1) == cells)
    rng = np.random.default_rng(seed)
    v[~boundary] += rng.uniform(-jitter, jitter, (int((~boundary).sum()), 3))
    elements = []
    for z, y, x in itertools.product(range(cells), repeat=3):
        corners = [x + m * y + m * m * z + d for d in (0, 1, 1 + m, m)]
        corners += [c + m * m for c in corners]
        elements += [(kind, tuple(corners[a] for a in local)) for kind, local in split(x)]
    return pf.Mesh(vertices=v, elements=tuple(elements),
                   fixed=frozenset(np.flatnonzero(boundary).tolist()))


def _pyramid_grid(cells, jitter, seed):
    # the cells of _hex_grid, each split into six pyramids, one over each
    # face, with their apex at a new vertex in the cell's centre; a base
    # cycle is reversed where the pyramid's mean volume is negative.  The
    # free vertices, the grid's interior and the centres, are jittered.
    grid = _hex_grid(cells, 0.0, seed)
    v, centres, elements = grid.vertices, [], []
    for _, nodes in grid.elements:
        apex = len(v) + len(centres)
        centres.append(v[list(nodes)].mean(axis=0))
        for face in pf.QUAD_FACES["hexahedron"]:
            base = [nodes[i - 1] for i in face]
            if pf.mean_volume("pyramid", np.vstack([v[base], centres[-1]])) < 0:
                base.reverse()
            elements.append(("pyramid", (*base, apex)))
    v = np.vstack([v, centres])
    free = np.ones(len(v), dtype=bool)
    free[list(grid.fixed)] = False
    v[free] += np.random.default_rng(seed).uniform(-jitter, jitter, (int(free.sum()), 3))
    return pf.Mesh(vertices=v, elements=tuple(elements), fixed=grid.fixed)


# 4^3 grids whose faces conform, jittered by +-0.3 inside a fixed boundary.
_CONFORMING_GRIDS = {
    "hexahedra": lambda seed: _hex_grid(4, 0.3, seed),
    "prism pairs": lambda seed: _cell_grid(4, 0.3, seed, lambda x: _CELL_PRISM_PAIR),
    "Kuhn tetrahedra": lambda seed: _cell_grid(4, 0.3, seed, lambda x: _CELL_KUHN),
    "six pyramids": lambda seed: _pyramid_grid(4, 0.3, seed),
}
_TWENTY_SWEEPS = pf.SmoothSettings(step=1.0, max_iters=20, quality_tol=-1)


def _centered_unit(p):
    c = p - p.mean(axis=0)
    return c / np.linalg.norm(c)


def _vertex_symmetries(kind):
    """The relabellings of a kind that keep its edge set and its orientation."""
    edges = {frozenset((a - 1, b - 1)) for a, b in pf.EDGES[kind]}
    ref = pf.reference_optimal(kind)
    return [s for s in itertools.permutations(range(pf.VERTEX_COUNT[kind]))
            if {frozenset((s[a], s[b])) for a, b in edges} == edges
            and pf.mean_volume(kind, ref[list(s)]) > 0.0]


def _loop_mean_volume(kind, p):
    tables = pf.TRIANGULATIONS[kind]
    return sum(pf.tet_signed_volume(*(p[i - 1] for i in tet))
               for table in tables for tet in table) / len(tables)


class TestMeshContainer:
    def test_validation_errors(self):
        v = np.zeros((4, 3))
        with pytest.raises(pf.MeshFormatError):
            pf.Mesh(vertices=np.zeros((4, 2)), elements=(), fixed=frozenset())
        with pytest.raises(pf.MeshFormatError):
            pf.Mesh(vertices=v, elements=(("blob", (0, 1, 2, 3)),),
                    fixed=frozenset())
        with pytest.raises(pf.MeshFormatError):
            pf.Mesh(vertices=v, elements=(("tetrahedron", (0, 1, 2)),),
                    fixed=frozenset())
        with pytest.raises(pf.MeshFormatError):
            pf.Mesh(vertices=v, elements=(("tetrahedron", (0, 1, 2, 9)),),
                    fixed=frozenset())
        with pytest.raises(pf.MeshFormatError):
            pf.Mesh(vertices=v, elements=(("tetrahedron", (0, 1, 2, 3)),),
                    fixed=frozenset({17}))

    @pytest.mark.parametrize("build", [
        lambda v: pf.Mesh(v, [], []),
        lambda v: pf.mesh_from_dict({"vertices": v.tolist(), "elements": []})],
        ids=["built", "loaded"])
    def test_a_mesh_needs_an_element(self, build):
        # built or loaded alike: a mesh without an element has no quality
        with pytest.raises(pf.MeshFormatError) as info:
            build(pf.reference_optimal("tetrahedron"))
        assert str(info.value) == "elements is empty; a mesh needs at least one element"

    def test_vertices_must_be_an_n_by_3_array(self):
        with pytest.raises(pf.MeshFormatError, match=r"^vertices must be an \(n, 3\) array$"):
            pf.Mesh(np.zeros((4, 2)), [("tetrahedron", (0, 1, 2, 3))], [])

    @pytest.mark.parametrize("nodes,message", [
        # each message names the first bad element, whatever follows it
        ([(0, 1, 2, 3), (0, 1, 2), (0, 1, 2, 9)],
         "elements[1]: tetrahedron needs 4 nodes, got 3"),
        ([(0, 1, 2, 3), (0, 1, 2, 9), (0, 1, True, 3)],
         "elements[1]: node index 9 out of range"),
        ([(0, 1, 2, 3), (0, 1, True, 3), (0, 1, 2, 9)],
         "elements[1]: node index True is not an integer"),
        ([(0, 1, 2, 3), (0, 1, 2.0, 3)],
         "elements[1]: node index 2.0 is not an integer"),
        ([(0, 1, 2, -1), (0, 1, 2, 3)],
         "elements[0]: node index -1 out of range"),
        ([(0, 1, 2, 3), (0, 1, 2, 2 ** 63)],
         f"elements[1]: node index {2 ** 63} out of range"),
    ])
    def test_first_bad_element_is_named(self, nodes, message):
        with pytest.raises(pf.MeshFormatError) as info:
            pf.Mesh(vertices=np.eye(4, 3),
                    elements=tuple(("tetrahedron", n) for n in nodes),
                    fixed=frozenset())
        assert str(info.value) == message

    def test_numpy_integer_indices_are_accepted(self):
        m = pf.Mesh(vertices=np.eye(4, 3),
                    elements=(("tetrahedron", np.arange(4)),
                              ("tetrahedron", (0, 1, 3, np.int32(2)))),
                    fixed=(np.int64(3), 0))
        assert m.elements == (("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (0, 1, 3, 2)))
        assert {type(i) for _, nodes in m.elements for i in nodes} == {int}
        assert m.fixed == {0, 3} and {type(i) for i in m.fixed} == {int}
        (kind, nodes, pos), = m.groups
        assert kind == "tetrahedron"
        assert nodes.tolist() == [[0, 1, 2, 3], [0, 1, 3, 2]] and pos.tolist() == [0, 1]
        with pytest.raises(pf.MeshFormatError, match="fixed vertex index 4 out of range"):
            pf.Mesh(vertices=np.eye(4, 3), elements=m.elements, fixed=(np.int64(4),))

    @pytest.mark.parametrize("index,message", [
        (np.True_, f"elements[1]: node index {np.True_!r} is not an integer"),
        (np.uint64(2 ** 63), f"elements[1]: node index {2 ** 63} out of range"),
    ], ids=["bool", "uint64"])
    def test_numpy_values_that_are_no_index_are_named(self, index, message):
        # numpy integers pass the array check; a numpy bool, or a uint64
        # beyond the index type, fails it and the element walk names it
        with pytest.raises(pf.MeshFormatError) as info:
            pf.Mesh(vertices=np.eye(4, 3),
                    elements=(("tetrahedron", (0, 1, 2, 3)), ("tetrahedron", (0, 1, 2, index))),
                    fixed=())
        assert str(info.value) == message

    def test_with_vertices_keeps_structure(self):
        m = _corner_tets()
        m2 = m.with_vertices(m.vertices + 1.0)
        assert m2.elements == m.elements
        assert m2.fixed == m.fixed

    def test_with_vertices_keeps_the_vertex_count(self):
        m = _single("tetrahedron", pf.reference_optimal("tetrahedron"))
        with pytest.raises(pf.MeshFormatError) as info:
            m.with_vertices(np.zeros((5, 3)))
        assert str(info.value) == "vertices must keep shape (4, 3), got (5, 3)"

    @pytest.mark.parametrize("nodes,fixed", [
        ([0, 1, 2.7, 3], []),
        ("0123", []),
        ([0, 1, 2, 3], [True]),
        ([0, 1, 2, 3], [0.0]),
    ])
    def test_indices_must_be_json_integers(self, nodes, fixed):
        data = {"vertices": np.eye(4, 3).tolist(),
                "elements": [{"type": "tetrahedron", "nodes": nodes}],
                "fixed": fixed}
        with pytest.raises(pf.MeshFormatError, match="integer|list"):
            pf.mesh_from_dict(data)


def _assert_same_arrays(a, b):
    # the array data of two meshes: elements, groups, plan and fixed
    assert a.elements == b.elements
    assert a.fixed == b.fixed
    assert len(a.groups) == len(b.groups)
    for (kind_a, nodes_a, pos_a), (kind_b, nodes_b, pos_b) in zip(a.groups, b.groups):
        assert kind_a == kind_b
        assert nodes_a.dtype == nodes_b.dtype == np.intp
        assert np.array_equal(nodes_a, nodes_b) and np.array_equal(pos_a, pos_b)
    (offsets_a, *rest_a), (offsets_b, *rest_b) = a.plan, b.plan
    assert len(offsets_a) == len(offsets_b)
    assert all(np.array_equal(x, y) for x, y in zip(offsets_a, offsets_b))
    assert all(np.array_equal(x, y) for x, y in zip(rest_a, rest_b))


class TestArrayMesh:
    """The JSON array path and the constructor build the same Mesh."""

    @pytest.mark.parametrize("mesh", ["mixed", "hex grid"])
    def test_dict_path_matches_constructor(self, mesh):
        m = _mixed_mesh() if mesh == "mixed" else _hex_grid(4, jitter=0.2, seed=2)
        built = pf.Mesh(vertices=m.vertices, elements=m.elements, fixed=m.fixed)
        read = pf.mesh_from_dict(pf.mesh_to_dict(m))
        assert read.vertices.tobytes() == built.vertices.tobytes()
        _assert_same_arrays(read, built)

    def test_groups_follow_first_use(self):
        # kinds in order of first use, positions in element order
        m = _mixed_mesh()
        assert [kind for kind, _, _ in m.groups] == [
            "hexahedron", "tetrahedron", "pyramid", "prism", "octahedron"]
        assert [pos.tolist() for _, _, pos in m.groups] == [[0], [1, 5], [2], [3], [4]]
        assert m.groups[1][1].tolist() == [[0, 4, 3, 11], [2, 3, 7, 17]]

    def test_elements_are_built_once(self):
        m = _mixed_mesh()
        assert m.elements is m.elements
        assert m.elements[5] == ("tetrahedron", (2, 3, 7, 17))
        assert {type(i) for _, nodes in m.elements for i in nodes} == {int}

    def test_load_keeps_the_interleaved_order(self, tmp_path):
        m = _mixed_mesh()
        path = tmp_path / "mesh.json"
        pf.save_mesh(m, path)
        loaded = pf.load_mesh(path)
        assert loaded.vertices.tobytes() == m.vertices.tobytes()
        _assert_same_arrays(loaded, m)
        assert [kind for kind, _ in loaded.elements] == [
            "hexahedron", "tetrahedron", "pyramid", "prism", "octahedron", "tetrahedron"]


def _bad_document(changes):
    # a four-element mesh of two kinds with every change applied
    doc = {"vertices": np.vstack([pf.reference_optimal("tetrahedron"),
                                  [[2.0, 2.0, 2.0], [3.0, 2.0, 2.0]]]).tolist(),
           "elements": [{"type": "tetrahedron", "nodes": [0, 1, 2, 3]},
                        {"type": "tetrahedron", "nodes": [1, 2, 3, 4]},
                        {"type": "pyramid", "nodes": [0, 1, 2, 3, 5]},
                        {"type": "tetrahedron", "nodes": [0, 2, 3, 5]}],
           "fixed": [0]}
    for path, value in changes:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


@pytest.mark.parametrize("changes,message", [
    # each message names the first bad entry, whatever follows it
    ([(("vertices", 1, 0), None), (("vertices", 2, 1), "a")],
     "vertex coordinate None is not a number"),
    ([(("vertices", 1, 2), True), (("vertices", 4, 0), None)],
     "vertex coordinate True is not a number"),
    ([(("vertices", 3, 0), "a"), (("vertices", 3, 1), [0])],
     "vertex coordinate 'a' is not a number"),
    ([(("vertices", 0, 0), [0]), (("vertices", 5, 0), True)],
     "vertex coordinate [0] is not a number"),
    ([(("vertices", 2), [0.0, 0.0]), (("vertices", 4, 0), None)],
     "vertices must be a list of [x, y, z] triples"),
    ([(("vertices", 5), [0.0, 0.0, 0.0, 0.0]), (("elements", 0), 7)],
     "vertices must be a list of [x, y, z] triples"),
    ([(("elements", 1), 7), (("elements", 2), {"type": "pyramid"})],
     "elements[1] must have 'type' and 'nodes'"),
    ([(("elements", 2), {"type": "pyramid"}), (("elements", 3), None)],
     "elements[2] must have 'type' and 'nodes'"),
    ([(("elements", 1, "nodes"), "1234"), (("elements", 3, "nodes"), 5)],
     "elements[1]: nodes must be a list of vertex indices"),
    ([(("elements", 0, "type"), ["tetrahedron"]), (("elements", 2, "type"), {})],
     "elements[0]: unknown type ['tetrahedron']"),
    ([(("elements", 1, "type"), {}), (("elements", 2, "type"), "cube")],
     "elements[1]: unknown type {}"),
    ([(("elements", 3, "type"), "cube"), (("elements", 2, "nodes", 0), 9)],
     "elements[2]: node index 9 out of range"),
    ([(("elements", 2, "type"), "tetrahedron"), (("elements", 3, "nodes", 1), True)],
     "elements[2]: tetrahedron needs 4 nodes, got 5"),
    ([(("fixed",), [True]), (("elements", 3, "nodes", 1), 2.5)],
     "elements[3]: node index 2.5 is not an integer"),
    ([(("fixed",), [0, None]), (("vertices", 5, 0), float("nan"))],
     "fixed vertex index None is not an integer"),
    ([(("vertices", 5, 0), float("nan")), (("vertices", 3, 0), float("inf"))],
     "element 0: vertex coordinates must be finite"),
    ([(("vertices", 5, 0), float("nan"))],
     "element 2: vertex coordinates must be finite"),
])
def test_fast_checks_name_the_first_bad_entry(changes, message):
    with pytest.raises(pf.MeshFormatError) as info:
        pf.mesh_from_dict(_bad_document(changes))
    assert str(info.value) == message


class TestMeshMeanVolume:
    def test_two_corner_tets(self):
        assert pf.mesh_mean_volume(_corner_tets()) == pytest.approx(1.0 / 3.0)

    def test_unit_cube(self):
        m = _single("hexahedron", pf.reference_optimal("hexahedron"))
        assert pf.mesh_mean_volume(m) == pytest.approx(1.0)

    def test_inverted_pair_cancels(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, 0, -1]], float)
        m = pf.Mesh(vertices=v,
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (0, 1, 2, 4))),
                    fixed=frozenset())
        assert pf.mesh_mean_volume(m) == pytest.approx(0.0, abs=1e-15)

    def test_far_scale_leaks_no_warning(self):
        # at 1e100 the unread <X, X> overflows, under the sweep's muted
        # warnings; the volume, 1e300, is finite
        m = _single("hexahedron", 1e100 * pf.reference_optimal("hexahedron"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pf.mesh_mean_volume(m) == pytest.approx(1e300, rel=1e-15, abs=0)

    def test_one_volume_rule_mixed(self):
        # mesh_mean_volume and the report read the same <X, c> / 18
        m = _mixed_mesh()
        assert pf.mesh_mean_volume(m) == pf.quality_report(m).mesh_mean_volume

    @pytest.mark.parametrize("seed", range(12))
    def test_one_volume_rule_hex_grid(self, seed):
        m = _hex_grid(8, jitter=0.2, seed=seed)
        assert pf.mesh_mean_volume(m) == pf.quality_report(m).mesh_mean_volume

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("grid", _CONFORMING_GRIDS)
    def test_boundary_invariant(self, grid, seed):
        # every quad face is split by both of its diagonals equally often,
        # so the cone volumes of a shared face cancel: the mesh volume is
        # the boundary's, 64, after interior jitter and after 20 sweeps
        m = _CONFORMING_GRIDS[grid](seed)
        smoothed, _ = pf.smooth(m, _TWENTY_SWEEPS)
        ulps = 4 * len(m.elements) * np.spacing(64.0)
        for state in (m, smoothed):
            assert abs(pf.mesh_mean_volume(state) - 64.0) <= ulps

    @pytest.mark.parametrize("seed", range(3))
    def test_boundary_invariant_fails_at_a_non_conforming_face(self, seed):
        # the control: where a hexahedron's quad face meets two Kuhn
        # triangles, one diagonal, the faces do not cancel and the volume moves
        m = _cell_grid(4, 0.2, seed, lambda x: _CELL_HEXAHEDRON if x < 2 else _CELL_KUHN)
        smoothed, _ = pf.smooth(m, _TWENTY_SWEEPS)
        assert abs(pf.mesh_mean_volume(smoothed) - 64.0) > 1e-3

    def test_coincident_element_is_zero(self):
        # an element whose vertices coincide adds 0, with no numpy warning
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [2, 2, 2]], float)
        m = pf.Mesh(vertices=v,
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (4, 4, 4, 4))),
                    fixed=frozenset())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pf.mesh_mean_volume(m) == pf.mesh_mean_volume(
                _single("tetrahedron", v[:4]))


class TestQualityReport:
    def test_reference_cube(self):
        rep = pf.quality_report(
            _single("hexahedron", pf.reference_optimal("hexahedron")))
        assert rep.per_element_q[0] == pytest.approx(1.0)
        assert rep.min_q == rep.max_q == rep.per_element_q[0]
        assert rep.inverted_count == 0

    def test_inverted_element_counted(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, 0, -1]], float)
        m = pf.Mesh(vertices=v,
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (0, 1, 2, 4))),
                    fixed=frozenset())
        rep = pf.quality_report(m)
        assert rep.inverted_count == 1
        assert rep.per_element_q[0] == pytest.approx(-rep.per_element_q[1])

    def test_scale_and_translation_invariant(self):
        m = _corner_tets()
        a = pf.quality_report(m).per_element_q
        b = pf.quality_report(m.with_vertices(7.0 * m.vertices - 3.0)
                              ).per_element_q
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_reference_shape_is_one(self, kind):
        # also far from the origin: the field is evaluated at the centered
        # rows, where at raw coordinates q was off by 6e-5 at 1e6 and by
        # 1.0 at 1e8
        ref = pf.reference_optimal(kind)
        for v in (ref, 3.7 * ref - 2.5, ref + 1e6, ref + 1e8):
            q = pf.quality_report(_single(kind, v)).per_element_q[0]
            assert abs(q - 1.0) <= 1e-14

    @pytest.mark.parametrize("mesh", ["hex grid", "mixed"])
    def test_elements_evaluate_as_alone(self, mesh):
        # an element's q is bitwise the q of a one-element mesh of it: no
        # sum in the sweep depends on how many elements share its kind
        m = _hex_grid(8, jitter=0.2, seed=3) if mesh == "hex grid" else _mixed_mesh()
        q = pf.quality_report(m).per_element_q
        for k, (kind, nodes) in enumerate(m.elements):
            alone = pf.quality_report(_single(kind, m.vertices[list(nodes)]))
            assert alone.per_element_q[0] == q[k], k

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_invariant_under_vertex_symmetries(self, kind):
        # every relabelling of one jittered shape that keeps the edge set
        # and the orientation gives the same q: the quality does not
        # depend on which vertex is stored last
        syms = _vertex_symmetries(kind)
        assert len(syms) == {"tetrahedron": 12, "pyramid": 4, "prism": 6,
                             "hexahedron": 24, "octahedron": 24}[kind]
        if kind == "hexahedron":
            assert (1, 2, 3, 0, 5, 6, 7, 4) in syms  # (1234)(5678)
        n = pf.VERTEX_COUNT[kind]
        v = (pf.reference_optimal(kind) + 3.0
             + np.random.default_rng(5).uniform(-0.2, 0.2, (n, 3)))
        m = pf.Mesh(vertices=v, elements=tuple((kind, s) for s in syms),
                    fixed=frozenset())
        q = np.array(pf.quality_report(m).per_element_q)
        assert np.abs(q - q[0]).max() <= 1e-14 * abs(q[0])

    def test_reports_compare_by_value(self):
        m = _mixed_mesh()
        rep = pf.quality_report(m)
        assert rep == pf.quality_report(m.with_vertices(m.vertices.copy()))
        assert rep != pf.quality_report(pf.smooth_step(m))
        assert rep != dataclasses.replace(rep, min_q=rep.min_q - 1.0)
        q = rep.per_element_q.copy()
        q[3] = 0.5
        assert rep != dataclasses.replace(rep, per_element_q=q)
        assert rep != rep.min_q

    def test_per_element_q_is_read_only(self):
        m = _mixed_mesh()
        reports = pf.smooth(m, pf.SmoothSettings(max_iters=3, quality_tol=-1))[1]
        for rep in (pf.quality_report(m), reports[0], reports[-1]):
            q = rep.per_element_q
            assert q.dtype == np.float64 and q.shape == (len(m.elements),)
            with pytest.raises(ValueError):
                q[0] = 1.0

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_at_most_one_on_random_shapes(self, kind):
        n = pf.VERTEX_COUNT[kind]
        rng = np.random.default_rng(9)
        P = np.concatenate([
            rng.normal(size=(300, n, 3)),
            pf.reference_optimal(kind) + rng.uniform(-0.05, 0.05, (300, n, 3))])
        m = pf.Mesh(vertices=P.reshape(-1, 3),
                    elements=tuple((kind, tuple(range(k * n, (k + 1) * n)))
                                   for k in range(len(P))),
                    fixed=frozenset())
        assert pf.quality_report(m).max_q <= 1.0 + 1e-12


class TestSmoothStep:
    def test_optimal_mesh_moves_only_radially(self):
        m = _single("hexahedron", pf.reference_optimal("hexahedron"))
        m2 = pf.smooth_step(m, pf.SmoothSettings(step=0.01))
        d = m2.vertices - m.vertices
        c = m.vertices.mean(axis=0)
        r = m.vertices - c
        dc = d - d.mean(axis=0)
        coef = np.vdot(dc, r) / np.vdot(r, r)
        assert np.abs(dc - coef * r).max() < 1e-14
        assert coef > 0.0  # volume ascent inflates the free element

    def test_centroid_preserved_when_all_free(self):
        m = _single("hexahedron",
                    pf.reference_optimal("hexahedron")
                    + np.random.default_rng(1).uniform(-0.1, 0.1, (8, 3)))
        m2 = pf.smooth_step(m, pf.SmoothSettings(step=1e-2))
        drift = np.abs(m2.vertices.mean(axis=0) - m.vertices.mean(axis=0))
        assert drift.max() < 1e-12

    def test_single_free_vertex_gets_averaged_field(self):
        # vertex 2 is shared by both tets; everything else fixed
        v = np.array([[0, 0, 0], [1, 0, 0], [0.4, 0.9, 0.1], [0, 0, 1],
                      [1, 1, 1]], float)
        m = pf.Mesh(vertices=v,
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (1, 0, 2, 4))),
                    fixed=frozenset({0, 1, 3, 4}))
        step = 0.03
        m2 = pf.smooth_step(m, pf.SmoothSettings(step=step))
        contrib = np.zeros(3)
        for kind, nodes in m.elements:
            F = pf.psi(pf.field(kind, pf.GRADIENT, v[list(nodes)]))
            contrib += F[nodes.index(2)]
        expected = v[2] + step * contrib / 2.0
        assert np.allclose(m2.vertices[2], expected, atol=1e-15)
        assert np.array_equal(m2.vertices[[0, 1, 3, 4]], v[[0, 1, 3, 4]])

    def test_zero_field_element_adds_nothing(self):
        # psi maps a zero field to zero: a tetrahedron on the x axis, whose
        # centered field is exactly 0, leaves its own vertices bitwise put
        # while the regular tetrahedron sharing vertices 0 and 1 moves them
        regular = pf.reference_optimal("tetrahedron")
        v = np.vstack([regular, [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]])
        m = pf.Mesh(vertices=v, elements=(("tetrahedron", (0, 1, 2, 3)),
                                          ("tetrahedron", (0, 1, 4, 5))),
                    fixed=frozenset())
        assert not pf.field("tetrahedron", pf.GRADIENT, v[[0, 1, 4, 5]]).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pf.smooth_step(m, pf.SmoothSettings()).vertices
        assert out[4:].tobytes() == v[4:].tobytes()
        assert np.isfinite(out).all() and (out[:2] != v[:2]).any()

    def test_fixed_vertices_bitwise_unchanged(self, rng):
        v = rng.normal(size=(8, 3))
        m = pf.Mesh(vertices=v,
                    elements=(("hexahedron", tuple(range(8))),),
                    fixed=frozenset({0, 3, 5}))
        m2 = pf.smooth_step(m, pf.SmoothSettings())
        for i in (0, 3, 5):
            assert m2.vertices[i].tobytes() == v[i].tobytes()

    def test_raw_volume_monotone_even_when_projected_dips(self):
        # the sweep ascends the raw volume sum; the projected volume
        # can still dip because the quotient representative drifts in
        # the gauge (translation/scale) directions
        base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.5, np.sqrt(3.0) / 2.0, 0.0]])
        c = base.mean(axis=0)
        h = np.sqrt(2.0 / 3.0)
        tt = np.vstack([base, c + [0, 0, h], c - [0, 0, h]])
        saw_dip = False
        for s in range(40):
            rng = np.random.default_rng(4000 + s)
            m = pf.Mesh(vertices=tt + rng.uniform(-0.15, 0.15, (5, 3)),
                        elements=(("tetrahedron", (0, 1, 2, 3)),
                                  ("tetrahedron", (1, 0, 2, 4))),
                        fixed=frozenset())
            m2 = pf.smooth_step(m, pf.SmoothSettings(step=1e-2))
            assert pf.mesh_mean_volume(m2) > pf.mesh_mean_volume(m)
            if _mmv_of_projected(m2) < _mmv_of_projected(m) - 1e-15:
                saw_dip = True
        assert saw_dip

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_step_is_homogeneous_of_degree_one(self, kind):
        # the field has degree 2 and psi divides it by sqrt|X|, of degree 1:
        # a mesh scaled by 4 moves by 4 times the step (a raw field by 16)
        n = pf.VERTEX_COUNT[kind]
        v = pf.reference_optimal(kind) + np.random.default_rng(3).uniform(-0.1, 0.1, (n, 3))
        m = _single(kind, v, fixed=[0])
        settings = pf.SmoothSettings(step=1e-2)
        moved = pf.smooth_step(m, settings).vertices - v
        scaled = pf.smooth_step(m.with_vertices(4.0 * v), settings).vertices - 4.0 * v
        assert np.abs(moved).max() > 1e-4
        assert np.abs(scaled - 4.0 * moved).max() <= 1e-13

    def test_flattened_pair_gains_projected_volume(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0],
                      [0.5, 0.4, 0.08], [0.5, 0.4, -0.08]], float)
        m = pf.Mesh(vertices=v,
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (1, 0, 2, 4))),
                    fixed=frozenset())
        before = _mmv_of_projected(m)
        after = _mmv_of_projected(pf.smooth_step(m, pf.SmoothSettings(step=1e-3)))
        assert after > before


class TestMixedKinds:
    """Batched per-kind passes against a per-element reference loop."""

    def test_smooth_step_matches_element_loop(self):
        m = _mixed_mesh()
        step = 0.05
        acc = np.zeros_like(m.vertices)
        count = np.zeros(len(m.vertices))
        for kind, nodes in m.elements:
            idx = list(nodes)
            acc[idx] += pf.psi(pf.field(kind, pf.GRADIENT, m.vertices[idx]))
            count[idx] += 1
        free = np.array([i not in m.fixed for i in range(len(m.vertices))])
        expected = m.vertices.copy()
        expected[free] += step * acc[free] / count[free, None]
        out = pf.smooth_step(m, pf.SmoothSettings(step=step)).vertices
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()
        for i in m.fixed:
            assert out[i].tobytes() == m.vertices[i].tobytes()

    def test_quality_report_matches_element_loop(self):
        m = _mixed_mesh()
        qs = [_loop_mean_volume(kind, _centered_unit(m.vertices[list(nodes)]))
              / pf.Q_MAX[kind] for kind, nodes in m.elements]
        mmv = sum(_loop_mean_volume(kind, m.vertices[list(nodes)])
                  for kind, nodes in m.elements)
        rep = pf.quality_report(m)
        assert len(rep.per_element_q) == len(qs)
        for got, want in zip(rep.per_element_q, qs):
            assert abs(got - want) <= 1e-14 * abs(want)
        assert abs(rep.mesh_mean_volume - mmv) <= 1e-14 * abs(mmv)
        assert abs(pf.mesh_mean_volume(m) - mmv) <= 1e-14 * abs(mmv)
        assert rep.min_q == min(rep.per_element_q)
        assert rep.max_q == max(rep.per_element_q)


def test_sweep_memory_peak():
    # One sweep and one report on a jittered 8^3 hex grid allocate per
    # kind, not per element; the pair-folded kernels peak at about
    # 1.3 MB, where np.cross over unfolded pairs needs about 5 MB.
    m = _hex_grid(8, jitter=0.2, seed=3)
    tracemalloc.start()
    try:
        pf.quality_report(pf.smooth_step(m, pf.SmoothSettings()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_smooth_memory_does_not_grow_with_its_sweeps():
    # Only the first and the last report keep their per-element q, so 180
    # more sweeps of a jittered 8^3 hex grid add a summary per state (about
    # 40 KB in all), not a 4 KB array per state (about 800 KB in all).
    m = _hex_grid(8, jitter=0.2, seed=3)
    peaks = []
    for sweeps in (20, 200):
        tracemalloc.start()
        try:
            reports = pf.smooth(m, pf.SmoothSettings(max_iters=sweeps, quality_tol=-1))[1]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(reports) == sweeps + 1
    assert peaks[1] - peaks[0] < 200e3


class TestSmoothSettings:
    def test_defaults(self):
        s = pf.SmoothSettings()
        # the sweep always steps by psi: the step, the budget and the stop rule
        assert [f.name for f in dataclasses.fields(s)] == ["step", "max_iters", "quality_tol"]
        assert s.step == 0.05
        assert s.max_iters == 10 ** 4
        assert s.quality_tol == 1e-10

    @pytest.mark.parametrize("bad,message", [
        (dict(step=0.0), "step must be positive and finite, got 0.0"),
        (dict(max_iters=-1), "max_iters must be an integer of at least 0, got -1"),
        (dict(quality_tol=float("nan")), "quality_tol must be a number, got nan"),
        # the fields are checked in order: the first bad one is named
        (dict(step=-1, max_iters=-1, quality_tol=float("nan")),
         "step must be positive and finite, got -1"),
        (dict(max_iters=-1, quality_tol=float("nan")),
         "max_iters must be an integer of at least 0, got -1"),
    ])
    def test_validation_messages(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pf.SmoothSettings(**bad)

    def test_a_budget_of_zero_is_accepted(self):
        s = pf.SmoothSettings(max_iters=np.int64(0))
        assert s.max_iters == 0 and type(s.max_iters) is int

    @pytest.mark.parametrize("fixed", [(0,), range(8)], ids=["free", "all-fixed"])
    def test_smooth_takes_only_smooth_settings(self, fixed):
        # the flow's settings have a sweep budget the smoother would not
        # read; they raise before any sweep, even on an all-fixed mesh
        m = _single("hexahedron", pf.reference_optimal("hexahedron"), fixed=fixed)
        with pytest.raises(TypeError, match=r"^smooth takes a SmoothSettings, got FlowSettings$"):
            pf.smooth(m, pf.FlowSettings(max_iters=1))

    def test_smooth_step_reads_a_psi_flow_settings_step(self):
        # a psi FlowSettings steps as a SmoothSettings with its step; the
        # sweep has no raw-field step, so a 'none' one is refused
        m = _mixed_mesh()
        assert (pf.smooth_step(m, pf.FlowSettings(step=1e-2)).vertices.tobytes()
                == pf.smooth_step(m, pf.SmoothSettings(step=1e-2)).vertices.tobytes())
        with pytest.raises(ValueError,
                           match=r"^smooth_step steps by psi, got normalization 'none'$"):
            pf.smooth_step(m, pf.FlowSettings(step=1e-2, normalization="none"))

    def test_normalization_is_no_field(self):
        # the sweep has no raw-field step to choose
        with pytest.raises(TypeError, match="normalization"):
            pf.SmoothSettings(normalization="psi")

    @pytest.mark.parametrize("settings", [
        pf.FlowSettings(step=1e-2, max_iters=1),
        pf.FlowSettings(step=1e-2, tol=0.5),
        pf.SmoothSettings(step=1e-2, max_iters=0),
        pf.SmoothSettings(step=1e-2, quality_tol=1e300),
    ], ids=["flow-max_iters", "flow-tol", "smooth-max_iters", "smooth-quality_tol"])
    def test_smooth_step_reads_only_the_step(self, settings):
        # one sweep whatever the budget or the stop rule: smooth's first step
        m = _mixed_mesh()
        once = pf.smooth(m, pf.SmoothSettings(step=1e-2, max_iters=1, quality_tol=-1))[0]
        assert pf.smooth_step(m, settings).vertices.tobytes() == once.vertices.tobytes()

    @pytest.mark.parametrize("settings,error,message", [
        (None, TypeError, "smooth_step takes a SmoothSettings or a FlowSettings, got NoneType"),
        (object(), TypeError, "smooth_step takes a SmoothSettings or a FlowSettings, got object"),
        (pf.FlowSettings(normalization="none"), ValueError,
         "smooth_step steps by psi, got normalization 'none'"),
    ], ids=["None", "object", "none"])
    def test_smooth_step_checks_its_settings_first(self, settings, error, message):
        # with valid settings this mesh raises on its coincident element, so
        # the settings are checked before any gather or field pass
        v = np.vstack([pf.reference_optimal("tetrahedron"), np.full((4, 3), 0.5)])
        m = pf.Mesh(vertices=v, elements=(("tetrahedron", (0, 1, 2, 3)),
                                          ("tetrahedron", (4, 5, 6, 7))),
                    fixed=frozenset({0}))
        with pytest.raises(pf.DegenerateConfigurationError):
            pf.smooth_step(m, pf.SmoothSettings())
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            pf.smooth_step(m, settings)


class TestSmooth:
    @pytest.mark.parametrize("max_iters", [0, 1, 2, 6])
    def test_only_the_first_and_last_reports_keep_per_element_q(self, max_iters):
        m = _mixed_mesh()
        smoothed, reports = pf.smooth(m, pf.SmoothSettings(max_iters=max_iters,
                                                         quality_tol=-1))
        # equal reports, per-element arrays included
        assert reports[0] == pf.quality_report(m)
        assert reports[-1] == pf.quality_report(smoothed)
        for i, rep in enumerate(reports[1:-1], 1):
            # each state between keeps its summary, that of a run that ends there
            assert rep.per_element_q is None
            alone = pf.smooth(m, pf.SmoothSettings(max_iters=i, quality_tol=-1))[1][-1]
            assert rep == dataclasses.replace(alone, per_element_q=None)

    def test_perturbed_cube_recovers(self):
        rng = np.random.default_rng(11)
        m = _single("hexahedron",
                    pf.reference_optimal("hexahedron")
                    + rng.uniform(-0.1, 0.1, (8, 3)))
        assert pf.quality_report(m).min_q < 0.99
        m2, reports = pf.smooth(m, pf.SmoothSettings())
        assert reports[-1].min_q >= 0.99
        assert len(reports) - 1 <= 10 ** 4

    def test_optimal_mesh_stops_at_window(self):
        m = _single("hexahedron", pf.reference_optimal("hexahedron"))
        _, reports = pf.smooth(m, pf.SmoothSettings())
        assert len(reports) - 1 == 10
        assert all(r.min_q == pytest.approx(1.0) for r in reports)

    def test_fixed_boundary_improves_quality(self):
        base = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        v = np.vstack([base, [[0.5, 0.28, 0.25]], [[0.5, 0.3, -0.2]]])
        m = pf.Mesh(vertices=v,
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("tetrahedron", (1, 0, 2, 4))),
                    fixed=frozenset({0, 1, 2}))
        start = pf.quality_report(m).min_q
        m2, reports = pf.smooth(m, pf.SmoothSettings(step=0.01))
        assert reports[-1].min_q > start
        assert np.array_equal(m2.vertices[:3], v[:3])

    def test_matches_per_element_oracle(self):
        # five sweeps against a per-element loop: each element's field,
        # psi, and each free vertex's average of its elements' rows
        m = _mixed_mesh()
        settings = pf.SmoothSettings(step=0.05, max_iters=5, quality_tol=-1)
        smoothed, reports = pf.smooth(m, settings)
        v = m.vertices.copy()
        for _ in range(5):
            moved = v.copy()
            for i in range(len(v)):
                if i in m.fixed:
                    continue
                rows = [pf.psi(pf.field(kind, pf.GRADIENT, v[list(nodes)]))[nodes.index(i)]
                        for kind, nodes in m.elements if i in nodes]
                if rows:
                    moved[i] = v[i] + settings.step * sum(rows) / len(rows)
            v = moved
        assert len(reports) == 6
        assert np.abs(smoothed.vertices - v).max() <= 1e-12
        for i in m.fixed:
            assert smoothed.vertices[i].tobytes() == m.vertices[i].tobytes()
        want = [_loop_mean_volume(kind, _centered_unit(v[list(nodes)])) / pf.Q_MAX[kind]
                for kind, nodes in m.elements]
        assert np.abs(np.array(reports[-1].per_element_q) - want).max() <= 1e-12

    def test_one_field_pass_per_sweep(self, monkeypatch):
        # each state's fields serve its report and its step: n sweeps make
        # n + 1 field passes per kind and no separate volume pass; a pass is
        # a run of a field kernel plan, which field_batch and _measure build.
        # The other entry points run the same sweep operator: a report is
        # one pass, smooth_step two, and mesh_mean_volume one
        field_calls, volume_calls = {}, []
        field_plan = elements._field_plan

        def counted_plan(kind, variant, P, out=None):
            run = field_plan(kind, variant, P, out)

            def counted():
                field_calls[kind] = field_calls.get(kind, 0) + 1
                return run()

            return counted

        monkeypatch.setattr(elements, "_field_plan", counted_plan)
        monkeypatch.setattr(elements, "mean_volume_batch",
                            lambda *args: volume_calls.append(args))
        sweeps = 5
        _, reports = pf.smooth(_mixed_mesh(), pf.SmoothSettings(max_iters=sweeps,
                                                                 quality_tol=-1))
        assert len(reports) == sweeps + 1
        assert field_calls == {kind: sweeps + 1 for kind in pf.KINDS}
        assert volume_calls == []
        for entry, passes in ((pf.quality_report, 1), (pf.smooth_step, 2),
                              (pf.mesh_mean_volume, 1)):
            field_calls.clear()
            entry(_mixed_mesh())
            assert field_calls == {kind: passes for kind in pf.KINDS}, entry.__name__
        assert volume_calls == []

    def test_no_scatter_on_the_stopping_state(self, monkeypatch):
        # the direction is formed only for a step that is taken: the
        # optimal cube stops at the window after 10 sweeps, 10 scatters
        calls = []
        divisor = mesh._divisor
        monkeypatch.setattr(mesh, "_divisor", lambda r: calls.append(r) or divisor(r))
        m = _single("hexahedron", pf.reference_optimal("hexahedron"))
        _, reports = pf.smooth(m, pf.SmoothSettings())
        assert len(reports) - 1 == 10
        assert len(calls) == 10
        calls.clear()
        pf.quality_report(m)
        assert calls == []

    def test_translation_far_from_origin(self):
        # the sweep evaluates each field at the centered rows, so a grid
        # shifted by 1e6 smooths as it does at the origin, up to the
        # rounding of the shifted input (1e-10)
        m = _hex_grid(8, jitter=0.2, seed=5)
        shift, settings = 1e6, pf.SmoothSettings(max_iters=20, quality_tol=-1)
        runs = [pf.smooth(m.with_vertices(m.vertices + s), settings) for s in (0.0, shift)]
        (near, near_reports), (far, far_reports) = runs
        assert np.abs(far.vertices - shift - near.vertices).max() <= 1e-8
        assert abs(far_reports[-1].min_q - near_reports[-1].min_q) <= 1e-8

    def test_runs_share_no_state(self):
        # the smoother keeps no state between runs: a run on another mesh in
        # between does not change a run's bytes, and the one-sweep entry
        # points give smooth's first report and first step
        a, b = _hex_grid(3, jitter=0.2, seed=1), _mixed_mesh()
        settings = pf.SmoothSettings(max_iters=5, quality_tol=-1)
        first = pf.smooth(a, settings)
        pf.smooth(b, settings)
        again = pf.smooth(a, settings)
        assert first[0].vertices.tobytes() == again[0].vertices.tobytes()
        assert first[1] == again[1]
        for m in (a, b):
            step, reports = pf.smooth(m, pf.SmoothSettings(max_iters=1, quality_tol=-1))
            assert pf.quality_report(m) == reports[0]
            assert pf.smooth_step(m).vertices.tobytes() == step.vertices.tobytes()

    def test_all_fixed_warns_identity(self):
        m = _single("hexahedron", pf.reference_optimal("hexahedron"),
                    fixed=range(8))
        with pytest.warns(UserWarning, match="fixed"):
            m2, reports = pf.smooth(m, pf.SmoothSettings())
        assert m2.vertices.tobytes() == m.vertices.tobytes()
        assert len(reports) == 1

    @pytest.mark.parametrize("fixed", [(0,), range(8)], ids=["free", "all-fixed"])
    @pytest.mark.parametrize("max_iters", [-1, 2.5, True, False, np.float64(3.0), "5", None])
    def test_rejects_a_bad_sweep_budget(self, max_iters, fixed):
        # checked as the settings are built, before any sweep or the all-fixed return
        m = _single("hexahedron", pf.reference_optimal("hexahedron"), fixed=fixed)
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 0"):
            pf.smooth(m, pf.SmoothSettings(max_iters=max_iters))

    @pytest.mark.parametrize("fixed", [(0,), range(8)], ids=["free", "all-fixed"])
    def test_rejects_a_nan_stop_tolerance(self, fixed):
        m = _single("hexahedron", pf.reference_optimal("hexahedron"), fixed=fixed)
        with pytest.raises(ValueError, match="quality_tol must be a number, got nan"):
            pf.smooth(m, pf.SmoothSettings(quality_tol=float("nan")))

    @pytest.mark.parametrize("max_iters", [0, 3, np.int64(3)])
    def test_accepts_an_integer_sweep_budget(self, max_iters):
        # reports[0] is the input state; a budget of 0 makes no sweep
        m = _single("hexahedron", pf.reference_optimal("hexahedron")
                    + np.random.default_rng(2).uniform(-0.1, 0.1, (8, 3)), fixed=(0,))
        smoothed, reports = pf.smooth(m, pf.SmoothSettings(max_iters=max_iters,
                                                         quality_tol=-1))
        assert len(reports) == max_iters + 1
        assert reports[0] == pf.quality_report(m)
        if max_iters == 0:
            assert smoothed.vertices.tobytes() == m.vertices.tobytes()

    @pytest.mark.parametrize("entry", ["smooth", "smooth_step"])
    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_overflowing_step_names_its_iteration(self, kind, entry):
        # at ten times the reference size the first step moves every free
        # vertex to infinity; the state it leads to, iteration 1, diverges
        n = pf.VERTEX_COUNT[kind]
        v = 10.0 * (pf.reference_optimal(kind) + np.random.default_rng(5).normal(
            scale=0.1, size=(n, 3)))
        m = _single(kind, v, fixed=[0])
        with pytest.raises(pf.FlowDivergenceError) as info, np.errstate(over="ignore"):
            getattr(pf, entry)(m, pf.SmoothSettings(step=1.7e308))
        assert info.value.iteration == 1

    @pytest.mark.parametrize("entry", ["smooth", "smooth_step"])
    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_overflowing_step_warns_nothing(self, kind, entry):
        # the overflow in the step and in the diagnosis of the state it
        # leads to stays inside the smoother
        n = pf.VERTEX_COUNT[kind]
        v = 10.0 * (pf.reference_optimal(kind) + np.random.default_rng(5).normal(
            scale=0.1, size=(n, 3)))
        m = _single(kind, v, fixed=[0])
        with pytest.raises(pf.FlowDivergenceError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            getattr(pf, entry)(m, pf.SmoothSettings(step=1.7e308))
        assert info.value.iteration == 1

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_overflowing_flow_settings_step_names_its_iteration(self, kind):
        # a psi FlowSettings runs smooth_step's one reported sweep: its
        # overflowing step diverges at iteration 1, warning nothing
        n = pf.VERTEX_COUNT[kind]
        v = 10.0 * (pf.reference_optimal(kind) + np.random.default_rng(5).normal(
            scale=0.1, size=(n, 3)))
        m = _single(kind, v, fixed=[0])
        with pytest.raises(pf.FlowDivergenceError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            pf.smooth_step(m, pf.FlowSettings(step=1.7e308))
        assert info.value.iteration == 1

    @pytest.mark.parametrize("entry", ["smooth", "smooth_step"])
    def test_coincident_input_element_is_named(self, entry):
        # both entry points report the input state before they step it
        v = np.vstack([pf.reference_optimal("tetrahedron"), np.full((4, 3), 0.5)])
        m = pf.Mesh(vertices=v, elements=(("tetrahedron", (0, 1, 2, 3)),
                                          ("tetrahedron", (4, 5, 6, 7))),
                    fixed=frozenset({0}))
        with pytest.raises(pf.DegenerateConfigurationError,
                           match="element 1: all vertices coincide"):
            getattr(pf, entry)(m, pf.SmoothSettings())


class TestMeshJson:
    def test_round_trip(self, tmp_path, rng):
        m = pf.Mesh(vertices=rng.normal(size=(8, 3)),
                    elements=(("tetrahedron", (0, 1, 2, 3)),
                              ("pyramid", (3, 4, 5, 6, 7))),
                    fixed=frozenset({0, 7}))
        path = tmp_path / "mesh.json"
        pf.save_mesh(m, path)
        m2 = pf.load_mesh(path)
        assert m2.vertices.tobytes() == m.vertices.tobytes()
        assert m2.elements == m.elements
        assert m2.fixed == m.fixed

    @pytest.mark.parametrize("case", ["mixed", "no fixed", "float forms", "non-finite",
                                      "hex grid"])
    def test_save_writes_the_json_dump_bytes(self, tmp_path, case):
        m = _corner_tets() if case == "no fixed" else _mixed_mesh()
        if case == "hex grid":
            m = _hex_grid(3, jitter=0.2, seed=5)
        if case in ("float forms", "non-finite"):
            v = m.vertices.copy()
            v[2] = [-0.0, 1e-300, 1.5e16]
            if case == "non-finite":
                v[3] = [np.nan, np.inf, -np.inf]
            m = m.with_vertices(v)
        path = tmp_path / "mesh.json"
        pf.save_mesh(m, path)
        expected = json.dumps(pf.mesh_to_dict(m), indent=2) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_dict_schema(self):
        d = pf.mesh_to_dict(_corner_tets())
        assert set(d) == {"vertices", "elements", "fixed"}
        assert d["elements"][0] == {"type": "tetrahedron",
                                    "nodes": [0, 1, 2, 3]}
        assert d["fixed"] == []
        json.dumps(d)  # serializable without custom encoders

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pf.load_mesh(tmp_path / "nope.json")

    def test_malformed_json_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0, 0, 0],\n  "elements": []}\n')
        with pytest.raises(pf.MeshFormatError) as err:
            pf.load_mesh(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("collecting", [True, False])
    def test_parse_runs_without_the_cyclic_gc(self, tmp_path, monkeypatch, collecting):
        # the parse runs with the collector off, and the caller's state is
        # back afterwards, after a good file and after a malformed one
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        pf.save_mesh(_corner_tets(), good)
        bad.write_text('{"vertices": [[0, 0, 0],\n  "elements": []}\n')
        loads, seen = json.loads, []
        monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled())
                            or loads(text))
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            m = pf.load_mesh(good)
            assert gc.isenabled() is collecting
            with pytest.raises(pf.MeshFormatError):
                pf.load_mesh(bad)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]
        assert m.vertices.tobytes() == _corner_tets().vertices.tobytes()

    def test_schema_errors(self):
        with pytest.raises(pf.MeshFormatError):
            pf.mesh_from_dict([1, 2, 3])
        with pytest.raises(pf.MeshFormatError):
            pf.mesh_from_dict({"vertices": [[0, 0, 0]]})
        with pytest.raises(pf.MeshFormatError):
            pf.mesh_from_dict({"vertices": [[0, 0]], "elements": []})
        with pytest.raises(pf.MeshFormatError):
            pf.mesh_from_dict({"vertices": [], "elements": [{"type": "x"}]})


def test_quality_csv(tmp_path):
    m = _corner_tets()
    rep = pf.quality_report(m)
    path = tmp_path / "q.csv"
    pf.quality_to_csv(rep, m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,type,q"
    assert len(lines) == 3
    idx, kind, q = lines[1].split(",")
    assert (idx, kind) == ("0", "tetrahedron")
    assert float(q) == pytest.approx(rep.per_element_q[0], rel=1e-16)


def test_quality_csv_names_a_report_without_per_element_q(tmp_path):
    m = _mixed_mesh()
    reports = pf.smooth(m, pf.SmoothSettings(max_iters=2, quality_tol=-1))[1]
    path = tmp_path / "q.csv"
    with pytest.raises(ValueError, match=r"^no per_element_q: pass quality_report\(m\), "
                                         r"reports\[0\] or reports\[-1\]$"):
        pf.quality_to_csv(reports[1], m, path)
    assert not path.exists()


def test_quality_csv_bytes_mixed(tmp_path):
    # the element loop over Mesh.elements is the reference for the bytes
    m = _mixed_mesh()
    rep = pf.quality_report(m)
    path = tmp_path / "q.csv"
    pf.quality_to_csv(rep, m, path)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "type", "q"])
        for k, ((kind, _), q) in enumerate(zip(m.elements, rep.per_element_q)):
            writer.writerow([k, kind, format(float(q), ".17g")])
    assert path.read_bytes() == want.read_bytes()
