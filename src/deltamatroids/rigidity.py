"""Multigraphs, cycle matroids, 2D generic rigidity via (2,3)-sparsity
counts, the rigidity feasible family, and the cone construction.

Each edge's vertex mask is a graph's one derived vertex form.  Both matroids
come from one count pass on 2^m-bit indicators of edge sets: per-vertex
incidence indicators give the sets that break the count, one up-closure of
those the sets that are not sparse, and the top size layer of the sparse sets
the maximal ones, the bases.  No graph question loops over subsets: connected
means cycle-matroid rank |V| - 1, and (2,3)-sparse means rigidity-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import MAX_GROUND_SIZE, GroundSet, InputError, SetFamily, Subset
from .core import _code_layers, _coordinates, _sizes, _up_closure
from .delta import construct_sandwich
from .matroids import Matroid


@dataclass(frozen=True)
class Multigraph:
    """Labeled vertices and labeled edges; parallel edges and loops allowed.

    Edge labels form the ground set of every matroid derived from the graph.
    Each edge's vertex mask (one bit for a loop) is the one derived vertex
    form; equal masks are parallel edges, so two loops at one vertex are too.
    Connectivity is read from the cycle matroid's rank: |V| - 1 iff connected.
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
    def _edge_vertex_masks(self) -> tuple[int, ...]:
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        return tuple(bit[u] | bit[v] for _, (u, v) in self.edges)

    def has_loop(self) -> bool:
        return any(ends.bit_count() == 1 for ends in self._edge_vertex_masks)

    def has_parallel(self) -> bool:
        return len(set(self._edge_vertex_masks)) < len(self.edges)

    def is_simple(self) -> bool:
        return not self.has_loop() and not self.has_parallel()

    def is_connected(self) -> bool:
        """Cycle-matroid rank |V| - 1; with no vertices, rank 0, not connected."""
        return cycle_matroid(self).rank == len(self.vertices) - 1


def _count_sparse(ev: tuple[int, ...], k: int, l: int) -> tuple[int, int]:
    """2^m-bit indicators of the (k,l)-sparse edge sets of a graph, given by
    its edge vertex masks ev, and of their maximal members (k >= 1, l >= 0).

    F is (k,l)-sparse iff no nonempty subset X of F breaks the count, that is
    has |X| > k|V(X)| - l.  The test reads only |X| and |V(X)|: for |X| = s it
    is |V(X)| <= ceil((s + l)/k) - 1 = (s + l - 1) // k.  at_most[j], the sets
    with |V(X)| <= j, takes one step per vertex u from touch[u], the OR of the
    coordinates of the edges at u; the broken sets are one AND per size layer,
    and X is sparse iff it lies above none of them.  The maximal sparse sets
    are the largest: for 0 <= l < 2k, which covers the program's (1,1) and
    (2,3), the sparse sets are a matroid's independent sets (Lee and Streinu
    2008, Pebble game algorithms and sparse graphs), its bases all one size.
    """
    m = len(ev)
    ones = (1 << (1 << m)) - 1
    touch: dict[int, int] = {}
    for has, ends in zip(_coordinates(m), ev):
        for u in range(ends.bit_length()):  # bit by bit: a loop touches one vertex
            if ends >> u & 1:
                touch[u] = touch.get(u, 0) | has
    at_most = [ones]  # no vertex read yet: |V(X)| = 0 for every X
    for t in touch.values():
        rest = ones ^ t
        at_most = [a & rest | b & t for a, b in zip(at_most, (0, *at_most))] + [ones]
    broken = 0
    for s, layer in enumerate(_sizes(m)[1:], 1):
        broken |= layer & at_most[min((s + l - 1) // k, len(touch))]
    sparse = ones ^ _up_closure(broken, m)
    return sparse, _code_layers(sparse, m)[1]


def cycle_matroid(g: Multigraph) -> Matroid:
    """Connectivity matroid on the edge labels: independents are forests,
    the (1,1)-sparse edge sets."""
    return Matroid._trusted(g.ground, _count_sparse(g._edge_vertex_masks, 1, 1)[1])


def is_sparse_23(g: Multigraph, f: Subset) -> bool:
    """(2,3)-sparsity, |F'| <= 2|V(F')| - 3 for every nonempty F' in f, read as
    independence in the rigidity matroid: no loop over the subsets of f."""
    if f.ground != g.ground:
        raise InputError("edge subset over a different ground set")
    return rigidity_matroid(g).is_independent(f)


def rigidity_matroid(g: Multigraph) -> Matroid:
    """2D generic rigidity matroid, the (2,3)-count matroid: independents are the (2,3)-sparse sets."""
    return Matroid._trusted(g.ground, _count_sparse(g._edge_vertex_masks, 2, 3)[1])


def rigidity_feasible_family(g: Multigraph) -> SetFamily:
    """Edge sets inducing a connected spanning subgraph that is not overbraced.

    Defined for connected simple graphs.  These are the sets independent in
    the rigidity matroid and spanning in the cycle matroid: the sandwich of
    that pair, which satisfies symmetric exchange, with upper matroid the
    spanning-connected part of the rigidity matroid and lower matroid the
    cycle matroid, built once: its rank |V| - 1 is the connectivity guard.
    """
    if not g.is_simple():
        raise InputError("rigidity feasible family requires a simple graph")
    lower = cycle_matroid(g)  # reads g.ground, the 16-edge cap, before the count
    if lower.rank != len(g.vertices) - 1:
        raise InputError("rigidity feasible family requires a connected graph")
    return construct_sandwich(rigidity_matroid(g), lower)


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
    if len(g.edges) + len(g.vertices) > MAX_GROUND_SIZE:
        raise InputError(
            f"the cone of a graph with {len(g.edges)} edges and {len(g.vertices)} vertices "
            f"has {len(g.edges) + len(g.vertices)} edges; the cap is {MAX_GROUND_SIZE}"
        )
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
        deletion_identity=deleted == mr,
        contraction_identity=contracted == mc,
    )


def _graph(vertices: str, ends: str) -> Multigraph:
    """One-character vertices; edges as space-separated end pairs, labeled e1, e2, ..."""
    return Multigraph.build(vertices, ((f"e{i}", u, v) for i, (u, v) in enumerate(ends.split(), 1)))


#: Fixed graph corpus used by the batch verification suites.
CORPUS: dict[str, Multigraph] = {
    name: _graph(vertices, ends)
    for name, (vertices, ends) in {
        "triangle": ("uvw", "uv vw uw"),
        "path_p3": ("uvw", "uv vw"),
        "k4": ("tuvw", "tu tv tw uv uw vw"),
        "k4_minus_edge": ("tuvw", "tu tv tw uv uw"),
        "two_triangles": ("stuvw", "st tu su uv vw uw"),
        "c5": ("stuvw", "st tu uv vw ws"),
        "c4_with_chord": ("tuvw", "tu uv vw wt tv"),
    }.items()
}
