import random
from itertools import combinations

import pytest

from deltamatroids import (
    CORPUS,
    ConeResult,
    DeltaMatroid,
    InputError,
    Matroid,
    Multigraph,
    Subset,
    cone,
    cycle_matroid,
    is_pairable,
    is_quotient,
    is_sparse_23,
    rigidity_feasible_family,
    rigidity_matroid,
    verify_cone_quotient,
)
from deltamatroids import rigidity
from deltamatroids.core import MAX_GROUND_SIZE
from deltamatroids.core import _decode_family
from deltamatroids.rigidity import _count_sparse


def triangle():
    return CORPUS["triangle"]


def cycle_with_chords(n, chords=()):
    vs = "abcdefghij"[:n]
    edges = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges += [(f"c{j}", vs[u], vs[v]) for j, (u, v) in enumerate(chords)]
    return Multigraph.build(vs, edges)


def submask_sparse_23(g, mask):
    """Reference (2,3)-sparsity by a scan over the submasks of mask: every
    nonempty F' in it has |F'| <= 2|V(F')| - 3, with V(F') read edge by edge.
    The library reads the rigidity matroid instead; this scan is its check."""
    s = mask
    while s:
        vmask = 0
        for i, ends in enumerate(g._edge_vertex_masks):
            if s >> i & 1:
                vmask |= ends
        if s.bit_count() > 2 * vmask.bit_count() - 3:
            return False
        s = (s - 1) & mask
    return True


def brute_force_sparse(g, k, l):
    """Per-set reference checks, independent of the count pass: forests by
    breadth-first search for (1,1), `submask_sparse_23` scans for (2,3)."""
    if (k, l) == (1, 1):
        return [m for m in g.ground.all_masks() if is_forest(g, m)]
    return [m for m in g.ground.all_masks() if submask_sparse_23(g, m)]


def state_machine_sparse(g, k, l):
    """Reference for `_count_sparse`: a per-bit state machine over the edge masks.

    One ascending pass: a nonempty X is sparse iff every X - e is sparse and X
    meets the count, and a sparse X marks each X - e as not maximal.  Returns
    the sparse sets and their maximal members, both ascending.
    """
    ev = g._edge_vertex_masks
    size = 1 << len(ev)
    vmask = [0] * size
    state = bytearray(size)  # 0 not sparse, 1 sparse, 2 sparse and extendable
    state[0] = 1
    sparse = [0]
    for x in range(1, size):
        low = x & -x
        vmask[x] = v = vmask[x ^ low] | ev[low.bit_length() - 1]
        if x.bit_count() > k * v.bit_count() - l:
            continue
        y = x
        while y and state[x ^ (y & -y)]:
            y &= y - 1
        if y:
            continue
        state[x] = 1
        sparse.append(x)
        y = x
        while y:
            state[x ^ (y & -y)] = 2
            y &= y - 1
    return sparse, [x for x in sparse if state[x] == 1]


def decoded_count_sparse(g, k, l):
    sparse, maximal = _count_sparse(g._edge_vertex_masks, k, l)
    return list(_decode_family(sparse)), list(_decode_family(maximal))


def assert_kernel_matches_brute_force(g):
    for k, l in ((1, 1), (2, 3)):
        want = brute_force_sparse(g, k, l)
        sparse, maximal = decoded_count_sparse(g, k, l)
        assert sparse == want, (g, k, l)
        # a member is maximal when no other member contains it
        assert maximal == [m for m in want if not any(k != m and m & ~k == 0 for k in want)], (g, k, l)


def seeded_multigraphs():
    """240 seeded multigraphs on 1 to 6 vertices with 0 to 10 edges, loops and parallels allowed."""
    rng = random.Random(2111)
    graphs = []
    for _ in range(240):
        vs = [f"v{i}" for i in range(rng.randint(1, 6))]
        edges = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(0, 10))]
        graphs.append(Multigraph.build(vs, edges))
    return graphs


def bfs_component_count(g, edge_mask):
    """Components of (V, F) by breadth-first search over the edges' end labels."""
    adjacent = {v: [] for v in g.vertices}
    for i, (_, (u, v)) in enumerate(g.edges):
        if edge_mask >> i & 1:
            adjacent[u].append(v)
            adjacent[v].append(u)
    seen, count = set(), 0
    for start in g.vertices:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = [start]
        for u in queue:
            fresh = [v for v in adjacent[u] if v not in seen]
            seen.update(fresh)
            queue += fresh
    return count


def is_forest(g, edge_mask):
    """No cycle in F (loops and parallel pairs count): |V| - components(V, F) = |F|."""
    return len(g.vertices) - bfs_component_count(g, edge_mask) == edge_mask.bit_count()


def is_connected_spanning(g, edge_mask):
    """(V, F) is connected over all vertices of the graph."""
    return bfs_component_count(g, edge_mask) == 1


def k5():
    return Multigraph.build("abcde", [(f"{u}{v}", u, v) for u, v in combinations("abcde", 2)])


def k5_less(removed):
    """K5 on vertices 0..4 less the named edges, e.g. "01 12 23"."""
    gone = {tuple(int(c) for c in pair) for pair in removed.split()}
    edges = [(u, v) for u, v in combinations(range(5), 2) if (u, v) not in gone]
    return Multigraph.build("abcde", [(f"e{i}", "abcde"[u], "abcde"[v]) for i, (u, v) in enumerate(edges)])


#: The cone-rigidity benchmark's cone shapes: K5 less a triangle, a 3-edge
#: path, a 3-edge star, a 2-path and an edge, a 4-cycle and a 4-edge path.
CONE_SHAPES = ("01 02 12", "01 12 23", "01 02 03", "01 12 34", "01 12 23 03", "01 12 23 34")


#: (k, l) pairs for the kernel's differential tests: forests (1,1), Laman
#: (2,3), and four more that reach the other roundings of its threshold.
COUNT_PARAMETERS = ((1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 6))


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
        # two loops at one vertex are parallel; a loop and an edge there are not
        assert Multigraph.build("u", [("e1", "u", "u"), ("e2", "u", "u")]).has_parallel()
        loop_and_edge = Multigraph.build("uv", [("e1", "u", "u"), ("e2", "u", "v")])
        assert loop_and_edge.has_loop() and not loop_and_edge.has_parallel()

    def test_connectivity(self):
        assert triangle().is_connected()
        two = Multigraph.build("uvwx", [("e1", "u", "v"), ("e2", "w", "x")])
        assert not two.is_connected()
        assert not Multigraph((), ()).is_connected()
        assert not Multigraph.build("uvw", [("e1", "u", "v")]).is_connected()
        assert Multigraph.build("u", []).is_connected()

    def test_forest_and_spanning_match_breadth_first_search(self):
        rng = random.Random(1808)
        graphs = []
        for _ in range(100):
            vs = [f"v{i}" for i in range(rng.randint(1, 6))]
            edges = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(0, 9))]
            graphs.append(Multigraph.build(vs, edges))
        assert sum(g.has_loop() for g in graphs) >= 20
        assert sum(g.has_parallel() for g in graphs) >= 20
        # the cycle matroid's forests and rank against the search, per mask;
        # F spans (V, F) connected iff g is connected and F spans the matroid
        for g in graphs:
            m, connected = cycle_matroid(g), g.is_connected()
            assert connected == is_connected_spanning(g, g.ground.full_mask), g
            for mask in range(1 << len(g.edges)):
                f = Subset(g.ground, mask)
                assert m.is_independent(f) == is_forest(g, mask), (g, mask)
                assert (connected and m.is_spanning(f)) == is_connected_spanning(g, mask), (g, mask)

    def test_corpus_is_pinned(self):
        # the corpus spelled out edge by edge, apart from how the module builds it
        want = {
            "triangle": (
                ("u", "v", "w"),
                (
                    ("e1", ("u", "v")), ("e2", ("v", "w")), ("e3", ("u", "w")),
                ),
            ),
            "path_p3": (
                ("u", "v", "w"),
                (
                    ("e1", ("u", "v")), ("e2", ("v", "w")),
                ),
            ),
            "k4": (
                ("t", "u", "v", "w"),
                (
                    ("e1", ("t", "u")), ("e2", ("t", "v")), ("e3", ("t", "w")),
                    ("e4", ("u", "v")), ("e5", ("u", "w")), ("e6", ("v", "w")),
                ),
            ),
            "k4_minus_edge": (
                ("t", "u", "v", "w"),
                (
                    ("e1", ("t", "u")), ("e2", ("t", "v")), ("e3", ("t", "w")),
                    ("e4", ("u", "v")), ("e5", ("u", "w")),
                ),
            ),
            "two_triangles": (
                ("s", "t", "u", "v", "w"),
                (
                    ("e1", ("s", "t")), ("e2", ("t", "u")), ("e3", ("s", "u")),
                    ("e4", ("u", "v")), ("e5", ("v", "w")), ("e6", ("u", "w")),
                ),
            ),
            "c5": (
                ("s", "t", "u", "v", "w"),
                (
                    ("e1", ("s", "t")), ("e2", ("t", "u")), ("e3", ("u", "v")),
                    ("e4", ("v", "w")), ("e5", ("w", "s")),
                ),
            ),
            "c4_with_chord": (
                ("t", "u", "v", "w"),
                (
                    ("e1", ("t", "u")), ("e2", ("u", "v")), ("e3", ("v", "w")),
                    ("e4", ("w", "t")), ("e5", ("t", "v")),
                ),
            ),
        }
        assert list(CORPUS) == list(want)
        for name, (vertices, edges) in want.items():
            assert CORPUS[name].vertices == vertices, name
            assert CORPUS[name].edges == edges, name


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
            assert m.is_independent(Subset(g.ground, mask)) == is_forest(g, mask)


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

    def test_matches_submask_scan_on_every_edge_set(self):
        # the library's only (2,3) check is the rigidity matroid; the scan is
        # the reference, on the corpus and multigraphs with loops and parallels
        seeded = [g for g in seeded_multigraphs() if len(g.edges) <= 9]
        assert len(seeded) >= 100
        assert sum(g.has_loop() for g in seeded) >= 20
        assert sum(g.has_parallel() for g in seeded) >= 20
        for g in [*CORPUS.values(), *seeded]:
            for m in g.ground.all_masks():
                assert is_sparse_23(g, Subset(g.ground, m)) == submask_sparse_23(g, m), (g, m)

    def test_one_count_pass_per_call_and_the_cap(self, monkeypatch):
        passes = []

        def recording(ev, k, l):
            passes.append((len(ev), k, l))
            return _count_sparse(ev, k, l)

        monkeypatch.setattr(rigidity, "_count_sparse", recording)
        wheel = cone(cycle_with_chords(8)).cone_graph
        assert len(wheel.edges) == MAX_GROUND_SIZE == 16
        # the full set breaks the count; less a rim or a spoke edge it is sparse
        for gone, want in (((), False), (("e0",), True), (("x0-h",), True)):
            passes.clear()
            assert is_sparse_23(wheel, wheel.ground.subset(gone).complement()) == want, gone
            assert passes == [(16, 2, 3)], gone
        assert submask_sparse_23(wheel, wheel.ground.subset(["e0"]).complement().mask)
        # 17 edges on two vertices: the ground's cap refuses before any pass
        big = Multigraph.build("uv", [(f"e{i}", "u", "v" if i % 2 else "u") for i in range(17)])
        passes.clear()
        with pytest.raises(InputError, match="the cap is 16"):
            is_sparse_23(big, triangle().ground.subset())
        assert passes == []


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
        graphs = seeded_multigraphs()
        assert sum(g.has_loop() for g in graphs) >= 50
        assert sum(g.has_parallel() for g in graphs) >= 50
        for g in graphs:
            assert_kernel_matches_brute_force(g)

    def test_matches_state_machine_beyond_brute_force(self):
        # cones of 11 to 16 edges, where the per-set brute force is too slow,
        # and the graphs under the last four
        bases = (cycle_with_chords(6, [(0, 3)]), cycle_with_chords(7), k5(), cycle_with_chords(8))
        graphs = [cone(k5_less(shape)).cone_graph for shape in CONE_SHAPES]
        graphs += [cone(g).cone_graph for g in bases] + list(bases)
        assert sorted(len(g.edges) for g in graphs) == [7, 7, 8, 10, 11, 11, 12, 12, 12, 12, 13, 14, 15, 16]
        for g in graphs:
            for k, l in ((1, 1), (2, 3)):
                assert decoded_count_sparse(g, k, l) == state_machine_sparse(g, k, l), (g, k, l)

    def test_every_rounding_case_matches_state_machine(self):
        # the kernel decides |X| = s by |V(X)| <= ceil((s + l)/k) - 1; these
        # (k, l) cover k dividing s + l and not, l = 0, and (3,6), under
        # which every single edge breaks the count
        for g in seeded_multigraphs():
            for k, l in COUNT_PARAMETERS:
                assert decoded_count_sparse(g, k, l) == state_machine_sparse(g, k, l), (g, k, l)

    def test_edgeless_graph(self):
        # only the empty set, which is sparse and maximal
        for g in (Multigraph((), ()), Multigraph(("a", "b"), ())):
            for k, l in COUNT_PARAMETERS:
                assert _count_sparse(g._edge_vertex_masks, k, l) == (1, 1), (g, k, l)

    def test_isolated_vertices_change_nothing(self):
        # vertices no edge touches, before, between and after the used ones
        bare = Multigraph.build("uvw", [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "u", "w"), ("e4", "w", "w")])
        padded = Multigraph.build("puqvrws", [(e, u, v) for e, (u, v) in bare.edges])
        for k, l in COUNT_PARAMETERS:
            want = state_machine_sparse(bare, k, l)
            assert decoded_count_sparse(bare, k, l) == want, (k, l)
            assert decoded_count_sparse(padded, k, l) == state_machine_sparse(padded, k, l) == want, (k, l)


class TestRigidityMatroid:
    def test_maximal_sparse_sets_pass_the_basis_exchange_axiom(self):
        # rigidity_matroid builds its bases without (MB), on count-matroid
        # theory; the full kernel is the reference: every corpus graph and its
        # cone, K5 and its 15-edge cone, and multigraphs with loops and parallels
        graphs = [*CORPUS.values(), *(cone(g).cone_graph for g in CORPUS.values()), k5(), cone(k5()).cone_graph]
        graphs += seeded_multigraphs()
        assert max(len(g.edges) for g in graphs) == 15
        for g in graphs:
            m = rigidity_matroid(g)
            assert Matroid.certify(m.bases) == m, g

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
            if is_connected_spanning(k5, m) and submask_sparse_23(k5, m)
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
                if is_connected_spanning(g, m) and submask_sparse_23(g, m)
            ]
            assert list(rigidity_feasible_family(g).masks) == want, edges
            checked += 1
        assert checked >= 10

    def test_one_count_pass_per_matroid(self, monkeypatch):
        # connectivity is the cycle matroid's rank: no second pass reads it
        passes = []

        def recording(ev, k, l):
            passes.append((k, l))
            return _count_sparse(ev, k, l)

        monkeypatch.setattr(rigidity, "_count_sparse", recording)
        rigidity_feasible_family(k5())
        assert sorted(passes) == [(1, 1), (2, 3)]
        passes.clear()
        assert k5().is_connected()
        assert passes == [(1, 1)]

    def test_cap_is_read_before_any_count_pass(self, monkeypatch):
        # K6 and two pendant edges: simple, connected, 17 edges on 8 vertices
        edges = [(u + v, u, v) for u, v in combinations("abcdef", 2)] + [("ag", "a", "g"), ("bh", "b", "h")]
        g = Multigraph.build("abcdefgh", edges)
        assert len(g.edges) == 17 and g.is_simple()

        def refuse(ev, k, l):
            raise AssertionError(f"a ({k},{l}) count pass started on {len(ev)} edges")

        monkeypatch.setattr(rigidity, "_count_sparse", refuse)
        with pytest.raises(InputError, match="the cap is 16"):
            g.is_connected()
        with pytest.raises(InputError, match="the cap is 16"):
            rigidity_feasible_family(g)

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
            want = [b for b in mr.bases.masks if is_connected_spanning(g, b)]
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
        assert len(cone(k5()).cone_graph.edges) == 15
        assert len(rigidity_matroid(cone(k5()).cone_graph).bases) == 3355
        assert verify_cone_quotient(k5()).both_hold

    def test_sixteen_edge_cone_at_the_cap(self):
        g = cycle_with_chords(8)
        assert len(cone(g).cone_graph.edges) == MAX_GROUND_SIZE == 16
        assert verify_cone_quotient(g).both_hold

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
