import random
from itertools import combinations

import pytest

from deltamatroids import (
    CORPUS,
    ConeResult,
    DeltaMatroid,
    InputError,
    Multigraph,
    SetFamily,
    Subset,
    cone,
    cycle_matroid,
    is_pairable,
    is_quotient,
    is_sparse_23,
    maximal_members,
    rigidity_feasible_family,
    rigidity_matroid,
    verify_cone_quotient,
)
from deltamatroids.rigidity import _count_sparse


def triangle():
    return CORPUS["triangle"]


def cycle_with_chords(n, chords=()):
    vs = "abcdefghij"[:n]
    edges = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges += [(f"c{j}", vs[u], vs[v]) for j, (u, v) in enumerate(chords)]
    return Multigraph.build(vs, edges)


def brute_force_sparse(g, k, l):
    """Per-set reference checks: forests for (1,1), submask scans for (2,3)."""
    if (k, l) == (1, 1):
        return [m for m in g.ground.all_masks() if g.is_forest(m)]
    return [m for m in g.ground.all_masks() if is_sparse_23(g, Subset(g.ground, m))]


def assert_kernel_matches_brute_force(g):
    for k, l in ((1, 1), (2, 3)):
        want = brute_force_sparse(g, k, l)
        sparse, maximal = _count_sparse(g, k, l)
        assert sparse == want, (g, k, l)
        assert maximal == list(maximal_members(SetFamily(g.ground, tuple(want))).masks), (g, k, l)


class TestMultigraph:
    def test_validation(self):
        with pytest.raises(InputError):
            Multigraph.build("uv", [("e1", "u", "w")])
        with pytest.raises(InputError):
            Multigraph.build("uu", [])
        with pytest.raises(InputError):
            Multigraph.build("uv", [("e1", "u", "v"), ("e1", "v", "u")])

    def test_loops_and_parallel_detection(self):
        loop = Multigraph.build("u", [("e1", "u", "u")])
        par = Multigraph.build("uv", [("e1", "u", "v"), ("e2", "u", "v")])
        assert loop.has_loop() and not loop.has_parallel()
        assert par.has_parallel() and not par.has_loop()
        assert triangle().is_simple()

    def test_connectivity(self):
        assert triangle().is_connected()
        two = Multigraph.build("uvwx", [("e1", "u", "v"), ("e2", "w", "x")])
        assert not two.is_connected()


class TestCycleMatroid:
    def test_triangle(self):
        m = cycle_matroid(triangle())
        assert sorted(sorted(b.labels) for b in m.bases) == [
            ["e1", "e2"],
            ["e1", "e3"],
            ["e2", "e3"],
        ]
        assert [sorted(c.labels) for c in m.circuits()] == [["e1", "e2", "e3"]]

    def test_single_loop_is_a_one_circuit(self):
        g = Multigraph.build("u", [("e1", "u", "u")])
        m = cycle_matroid(g)
        assert m.rank == 0
        assert [list(c.labels) for c in m.circuits()] == [["e1"]]

    def test_parallel_pair_is_a_two_circuit(self):
        g = Multigraph.build("uv", [("d", "u", "v"), ("b", "u", "v")])
        m = cycle_matroid(g)
        assert sorted(c.labels for c in m.circuits()) == [("d", "b")]

    def test_forest_oracle(self):
        # independent sets of the cycle matroid are exactly the forests
        g = CORPUS["c4_with_chord"]
        m = cycle_matroid(g)
        for mask in g.ground.all_masks():
            assert m.is_independent(Subset(g.ground, mask)) == g.is_forest(mask)


class TestSparsity:
    def test_triangle_meets_count_with_equality(self):
        g = triangle()
        assert is_sparse_23(g, g.ground.subset(g.ground.labels))

    def test_k4_is_overbraced(self):
        g = CORPUS["k4"]
        assert not is_sparse_23(g, g.ground.subset(g.ground.labels))
        # 6 edges on 4 vertices: 6 > 2*4 - 3

    def test_empty_set_vacuously_sparse(self):
        g = triangle()
        assert is_sparse_23(g, g.ground.subset())

    def test_loop_and_parallel_violate(self):
        loop = Multigraph.build("uv", [("e1", "u", "u"), ("e2", "u", "v")])
        assert not is_sparse_23(loop, loop.ground.subset(["e1"]))
        par = Multigraph.build("uv", [("e1", "u", "v"), ("e2", "u", "v")])
        assert not is_sparse_23(par, par.ground.subset(["e1", "e2"]))

    def test_downward_closed_on_corpus(self):
        for g in CORPUS.values():
            sparse = {m for m in g.ground.all_masks() if is_sparse_23(g, Subset(g.ground, m))}
            for m in sparse:
                sub = m
                while sub:
                    sub = (sub - 1) & m
                    assert sub in sparse


class TestCountSparseKernel:
    def test_corpus(self):
        for g in CORPUS.values():
            assert_kernel_matches_brute_force(g)

    def test_every_edge_subset_of_k4(self):
        k4 = CORPUS["k4"]
        for mask in k4.ground.all_masks():
            edges = tuple(e for i, e in enumerate(k4.edges) if mask >> i & 1)
            assert_kernel_matches_brute_force(Multigraph(k4.vertices, edges))

    def test_seeded_multigraphs_with_loops_and_parallels(self):
        rng = random.Random(2111)
        graphs = []
        for _ in range(240):
            vs = [f"v{i}" for i in range(rng.randint(1, 6))]
            edges = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(0, 10))]
            graphs.append(Multigraph.build(vs, edges))
        assert sum(g.has_loop() for g in graphs) >= 50
        assert sum(g.has_parallel() for g in graphs) >= 50
        for g in graphs:
            assert_kernel_matches_brute_force(g)


class TestRigidityMatroid:
    def test_k4_rigidity_circuit_is_everything(self):
        m = rigidity_matroid(CORPUS["k4"])
        assert [c.mask for c in m.circuits()] == [m.ground.full_mask]

    def test_triangle_is_independent(self):
        g = triangle()
        m = rigidity_matroid(g)
        assert m.is_independent(g.ground.subset(g.ground.labels))

    def test_cone_of_cycle_is_rigidity_circuit(self):
        # the cone of a connectivity cycle is a circuit of the rigidity matroid
        for name in ("triangle", "c5"):
            g = CORPUS[name]
            result = cone(g)
            mr = rigidity_matroid(result.cone_graph)
            full = Subset(result.cone_graph.ground, result.cone_graph.ground.full_mask)
            assert full in mr.circuits()


class TestFeasibleFamily:
    def test_triangle_family(self):
        fam = rigidity_feasible_family(triangle())
        assert [sorted(s.labels) for s in fam] == [
            ["e1", "e2"],
            ["e1", "e3"],
            ["e2", "e3"],
            ["e1", "e2", "e3"],
        ]

    def test_tree_has_single_feasible(self):
        fam = rigidity_feasible_family(CORPUS["path_p3"])
        assert fam.member_labels() == [["e1", "e2"]]

    def test_k4_excludes_full_edge_set(self):
        g = CORPUS["k4"]
        fam = rigidity_feasible_family(g)
        assert g.ground.subset(g.ground.labels) not in fam

    def test_k5_matches_brute_force_filter(self):
        vs = "abcde"
        k5 = Multigraph.build(vs, [(u + v, u, v) for u, v in combinations(vs, 2)])
        want = [
            m
            for m in k5.ground.all_masks()
            if k5.is_connected_spanning(m) and is_sparse_23(k5, Subset(k5.ground, m))
        ]
        assert list(rigidity_feasible_family(k5).masks) == want

    def test_seeded_graphs_match_brute_force_filter(self):
        # seeded connected simple graphs, then the cone-rigidity benchmark's
        # other feasible shapes: K5 less two disjoint edges, the prism, and
        # the prism with a chord
        rng = random.Random(7)
        graphs = []
        while len(graphs) < 12:
            nv = rng.randint(3, 6)
            pairs = list(combinations(range(nv), 2))
            edges = rng.sample(pairs, rng.randint(nv - 1, min(10, len(pairs))))
            graphs.append((nv, edges))
        prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        k5 = list(combinations(range(5), 2))
        graphs += [(5, [e for e in k5 if e not in ((0, 1), (2, 3))]), (6, prism), (6, prism + [(0, 4)])]
        checked = 0
        for nv, edges in graphs:
            vs = "abcdef"[:nv]
            g = Multigraph.build(vs, [(f"e{i}", vs[u], vs[v]) for i, (u, v) in enumerate(edges)])
            if not g.is_connected():
                continue
            want = [
                m
                for m in g.ground.all_masks()
                if g.is_connected_spanning(m) and is_sparse_23(g, Subset(g.ground, m))
            ]
            assert list(rigidity_feasible_family(g).masks) == want, edges
            checked += 1
        assert checked >= 10

    def test_disconnected_rejected(self):
        g = Multigraph.build("uvwx", [("e1", "u", "v"), ("e2", "w", "x")])
        with pytest.raises(InputError):
            rigidity_feasible_family(g)

    def test_nonsimple_rejected(self):
        g = Multigraph.build("uv", [("e1", "u", "v"), ("e2", "u", "v")])
        with pytest.raises(InputError):
            rigidity_feasible_family(g)

    def test_corpus_families_certify_with_expected_upper_lower(self):
        for name, g in CORPUS.items():
            fam = rigidity_feasible_family(g)
            d = DeltaMatroid.certify(fam)
            assert d.lower == cycle_matroid(g), name
            # upper bases: maximal-size feasible sets, i.e. spanning-connected
            # bases of the rigidity matroid
            mr = rigidity_matroid(g)
            want = [b for b in mr.bases.masks if g.is_connected_spanning(b)]
            assert list(d.upper.bases.masks) == want, name

    def test_corpus_pairs_are_pairable(self):
        for name, g in CORPUS.items():
            fam = rigidity_feasible_family(g)
            d = DeltaMatroid.certify(fam)
            assert is_pairable(d.upper, d.lower).pairable, name


class TestCone:
    def test_triangle_cone_is_k4(self):
        g = triangle()
        result = cone(g)
        assert len(result.cone_graph.vertices) == 4
        assert len(result.cone_graph.edges) == 6
        assert len(result.cone_edges) == 3
        assert result.cone_graph.is_simple()

    def test_single_vertex_cone_is_an_edge(self):
        g = Multigraph.build("u", [])
        result = cone(g)
        assert len(result.cone_graph.vertices) == 2
        assert len(result.cone_graph.edges) == 1

    def test_shape_counts(self):
        for g in CORPUS.values():
            result = cone(g)
            assert len(result.cone_graph.vertices) == len(g.vertices) + 1
            assert len(result.cone_graph.edges) == len(g.edges) + len(g.vertices)
            assert result.cone_graph.ground.labels[: len(g.edges)] == g.ground.labels

    def test_apex_label_avoids_collisions(self):
        g = Multigraph.build(("x0", "v"), [("e1", "x0", "v")])
        result = cone(g)
        assert len(set(result.cone_graph.vertices)) == 3

    def test_new_edge_labels_avoid_each_other(self):
        # a' primes its label past the old "x0-a'" onto the one a'' asks for first
        g = Multigraph.build(("a", "a'", "a''"), [("x0-a'", "a", "a'")])
        labels = cone(g).cone_graph.ground.labels
        assert labels == ("x0-a'", "x0-a", "x0-a''", "x0-a" + "'" * 3)


class TestConeQuotient:
    def test_triangle_identities(self):
        rep = verify_cone_quotient(triangle())
        assert rep.deletion_identity and rep.contraction_identity

    def test_path_identities(self):
        rep = verify_cone_quotient(CORPUS["path_p3"])
        assert rep.both_hold

    def test_whole_corpus(self):
        for name, g in CORPUS.items():
            assert verify_cone_quotient(g).both_hold, name

    def test_thirteen_and_fourteen_edge_cones(self):
        for g, size in ((cycle_with_chords(6, [(0, 3)]), 13), (cycle_with_chords(7), 14)):
            assert len(cone(g).cone_graph.edges) == size
            assert verify_cone_quotient(g).both_hold

    def test_k5_and_its_fifteen_edge_cone(self):
        k5 = Multigraph.build("abcde", [(f"{u}{v}", u, v) for u, v in combinations("abcde", 2)])
        assert len(cone(k5).cone_graph.edges) == 15
        assert len(rigidity_matroid(cone(k5).cone_graph).bases) == 3355
        assert verify_cone_quotient(k5).both_hold

    def test_misaligned_minor_ground_is_an_engine_error(self, monkeypatch):
        real_cone = cone

        def cone_with_first_edges_swapped(g):
            result = real_cone(g)
            edges = result.cone_graph.edges
            swapped = Multigraph(result.cone_graph.vertices, edges[1::-1] + edges[2:])
            return ConeResult(swapped, swapped.ground.subset(result.cone_edges.labels))

        monkeypatch.setattr("deltamatroids.rigidity.cone", cone_with_first_edges_swapped)
        with pytest.raises(RuntimeError):
            verify_cone_quotient(triangle())

    def test_contracting_cone_edges_of_k4_gives_triangle_cycles(self):
        # K4 viewed as the cone of the triangle: contracting the cone edges
        # in its rigidity matroid leaves the triangle's cycle matroid
        g = triangle()
        result = cone(g)
        mr = rigidity_matroid(result.cone_graph)
        contracted = mr.contract(result.cone_edges)
        assert contracted.bases.masks == cycle_matroid(g).bases.masks

    def test_cycle_is_quotient_of_rigidity_on_corpus(self):
        for name, g in CORPUS.items():
            assert is_quotient(cycle_matroid(g), rigidity_matroid(g)), name
