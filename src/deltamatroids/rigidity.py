"""Multigraphs, cycle matroids, 2D generic rigidity via (2,3)-sparsity
counts, the rigidity feasible family, and the cone construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .core import GroundSet, InputError, SetFamily, Subset
from .delta import construct_sandwich
from .matroids import Matroid


@dataclass(frozen=True)
class Multigraph:
    """Labeled vertices and labeled edges; parallel edges and loops allowed.

    Edge labels form the ground set of every matroid derived from the graph.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, tuple[str, str]], ...]  # (edge label, (end, end))

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple((e, (u, v)) for e, (u, v) in self.edges)
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex labels")
        labels = [e for e, _ in self.edges]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate edge labels")
        vset = set(self.vertices)
        for e, (u, v) in self.edges:
            if u not in vset or v not in vset:
                raise InputError(f"edge {e!r} has an endpoint outside the vertex set")

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "Multigraph":
        """Edges given as (label, end, end) triples."""
        return cls(tuple(vertices), tuple((e, (u, v)) for e, u, v in edges))

    @cached_property
    def ground(self) -> GroundSet:
        return GroundSet(tuple(e for e, _ in self.edges))

    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _edge_vertex_masks(self) -> tuple[int, ...]:
        vi = self._vertex_index
        return tuple((1 << vi[u]) | (1 << vi[v]) for _, (u, v) in self.edges)

    def has_loop(self) -> bool:
        return any(u == v for _, (u, v) in self.edges)

    def has_parallel(self) -> bool:
        seen = set()
        for _, (u, v) in self.edges:
            key = frozenset((u, v))
            if key in seen:
                return True
            seen.add(key)
        return False

    def is_simple(self) -> bool:
        return not self.has_loop() and not self.has_parallel()

    def _forest_rank(self, edge_mask: int) -> int:
        """Edges of a spanning forest of (V, F), by union-find: the cycle-matroid rank of F."""
        parent = list(range(len(self.vertices)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        vi = self._vertex_index
        rank = 0
        for i, (_, (u, v)) in enumerate(self.edges):
            if edge_mask >> i & 1:
                ra, rb = find(vi[u]), find(vi[v])
                if ra != rb:
                    parent[ra] = rb
                    rank += 1
        return rank

    def is_forest(self, edge_mask: int) -> bool:
        """True iff the edge set contains no cycle (loops and parallel pairs count)."""
        return self._forest_rank(edge_mask) == edge_mask.bit_count()

    def is_connected_spanning(self, edge_mask: int) -> bool:
        """True iff (V, F) is connected over *all* vertices of the graph."""
        return len(self.vertices) - self._forest_rank(edge_mask) == 1

    def is_connected(self) -> bool:
        return self.is_connected_spanning(self.ground.full_mask)


def _count_sparse(g: Multigraph, k: int, l: int) -> tuple[list[int], list[int]]:
    """The (k,l)-sparse edge sets of g and their maximal members, both ascending.

    F is (k,l)-sparse when every nonempty F' within F has |F'| <= k|V(F')| - l.
    One ascending pass over the edge masks suffices, since each X - e comes
    before X: a nonempty X is sparse iff every X - e is sparse and X itself
    meets the count.  A sparse X marks each X - e as not maximal.
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


def cycle_matroid(g: Multigraph) -> Matroid:
    """Connectivity matroid on the edge labels: independents are forests,
    the (1,1)-sparse edge sets."""
    return Matroid._trusted(g.ground, _count_sparse(g, 1, 1)[1])


def _sparse_count_ok(g: Multigraph, mask: int) -> bool:
    """Check the single count |F| <= 2|V(F)| - 3 for one nonempty edge set."""
    vmask = 0
    for i in range(len(g.edges)):
        if mask >> i & 1:
            vmask |= g._edge_vertex_masks[i]
    return mask.bit_count() <= 2 * vmask.bit_count() - 3


def is_sparse_23(g: Multigraph, f: Subset) -> bool:
    """(2,3)-sparsity: every nonempty subset F' of f obeys |F'| <= 2|V(F')| - 3.

    The empty set is vacuously sparse.  A loop or a parallel pair always
    violates the count, so graphs containing either are overbraced.
    """
    if f.ground != g.ground:
        raise InputError("edge subset over a different ground set")
    s = f.mask
    while s:
        if not _sparse_count_ok(g, s):
            return False
        s = (s - 1) & f.mask
    return True


def rigidity_matroid(g: Multigraph) -> Matroid:
    """2D generic rigidity matroid: independents are the (2,3)-sparse sets."""
    return Matroid.certify(SetFamily(g.ground, tuple(_count_sparse(g, 2, 3)[1])))


def rigidity_feasible_family(g: Multigraph) -> SetFamily:
    """Edge sets inducing a connected spanning subgraph that is not overbraced.

    Defined for connected simple graphs.  These are the sets independent in
    the rigidity matroid and spanning in the cycle matroid: the sandwich of
    that pair, which satisfies symmetric exchange, with upper matroid the
    spanning-connected part of the rigidity matroid and lower matroid the
    cycle matroid.
    """
    if not g.is_simple():
        raise InputError("rigidity feasible family requires a simple graph")
    if not g.is_connected():
        raise InputError("rigidity feasible family requires a connected graph")
    return construct_sandwich(rigidity_matroid(g), cycle_matroid(g))


@dataclass(frozen=True)
class ConeResult:
    """A graph with one new apex vertex joined to every old vertex, plus the
    subset of new edges inside the enlarged edge ground set."""

    cone_graph: Multigraph
    cone_edges: Subset


def cone(g: Multigraph) -> ConeResult:
    """Add an apex vertex adjacent to every vertex of g.

    New labels are deterministic: the apex is "x0" (primed until fresh) and
    each new edge is "<apex>-<vertex>", primed until distinct from every old
    label and every new label before it.  New edges come after the old ones,
    so the original edge order is preserved in the enlarged ground set.
    """
    apex = "x0"
    while apex in g.vertices:
        apex += "'"
    taken = {e for e, _ in g.edges}
    new_edges = []
    for v in g.vertices:
        label = f"{apex}-{v}"
        while label in taken:
            label += "'"
        taken.add(label)
        new_edges.append((label, (apex, v)))
    cg = Multigraph(g.vertices + (apex,), g.edges + tuple(new_edges))
    return ConeResult(cg, cg.ground.subset(e for e, _ in new_edges))


@dataclass(frozen=True)
class ConeQuotientReport:
    """Per-identity verdicts for the cone realization of the quotient:
    rigidity of g equals rigidity of the cone with the new edges deleted,
    and the cycle matroid of g equals the same with the new edges contracted."""

    deletion_identity: bool
    contraction_identity: bool

    @property
    def both_hold(self) -> bool:
        return self.deletion_identity and self.contraction_identity

    def to_json(self) -> dict:
        return {
            "deletion_identity": self.deletion_identity,
            "contraction_identity": self.contraction_identity,
        }


def verify_cone_quotient(g: Multigraph) -> ConeQuotientReport:
    """Compare both sides of the cone identities by basis-family equality."""
    result = cone(g)
    mr_cone = rigidity_matroid(result.cone_graph)
    deleted = mr_cone.delete(result.cone_edges)
    contracted = mr_cone.contract(result.cone_edges)
    mr = rigidity_matroid(g)
    mc = cycle_matroid(g)
    # deletion/contraction keep the original edge order, so grounds line up
    if deleted.ground != g.ground or contracted.ground != g.ground:
        raise RuntimeError("cone minors are not over the graph's edge ground set")
    return ConeQuotientReport(
        deletion_identity=deleted.bases.masks == mr.bases.masks,
        contraction_identity=contracted.bases.masks == mc.bases.masks,
    )


def _corpus() -> dict[str, Multigraph]:
    tri = Multigraph.build("uvw", [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "u", "w")])
    p3 = Multigraph.build("uvw", [("e1", "u", "v"), ("e2", "v", "w")])
    k4 = Multigraph.build(
        "tuvw",
        [
            ("e1", "t", "u"),
            ("e2", "t", "v"),
            ("e3", "t", "w"),
            ("e4", "u", "v"),
            ("e5", "u", "w"),
            ("e6", "v", "w"),
        ],
    )
    k4_minus = Multigraph.build(
        "tuvw",
        [
            ("e1", "t", "u"),
            ("e2", "t", "v"),
            ("e3", "t", "w"),
            ("e4", "u", "v"),
            ("e5", "u", "w"),
        ],
    )
    bowtie = Multigraph.build(
        "stuvw",
        [
            ("e1", "s", "t"),
            ("e2", "t", "u"),
            ("e3", "s", "u"),
            ("e4", "u", "v"),
            ("e5", "v", "w"),
            ("e6", "u", "w"),
        ],
    )
    c5 = Multigraph.build(
        "stuvw",
        [
            ("e1", "s", "t"),
            ("e2", "t", "u"),
            ("e3", "u", "v"),
            ("e4", "v", "w"),
            ("e5", "w", "s"),
        ],
    )
    chordal_c4 = Multigraph.build(
        "tuvw",
        [
            ("e1", "t", "u"),
            ("e2", "u", "v"),
            ("e3", "v", "w"),
            ("e4", "w", "t"),
            ("e5", "t", "v"),
        ],
    )
    return {
        "triangle": tri,
        "path_p3": p3,
        "k4": k4,
        "k4_minus_edge": k4_minus,
        "two_triangles": bowtie,
        "c5": c5,
        "c4_with_chord": chordal_c4,
    }


#: Fixed graph corpus used by the batch verification suites.
CORPUS: dict[str, Multigraph] = _corpus()
