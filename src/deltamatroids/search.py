"""Exhaustive searches over small matroids, delta-matroids, and multigraph
pairs: theorem verification suites and the unpairable-pair hunt.

Each (axiom, n) universe is built once per process, level by level (families on
k elements from those on k - 1; one (DF) verdict per twist orbit): `_codes`
caches its codes, `_objects` its matroids (with their derived sets) or, for
`enumerate_delta_matroids` only, its delta-matroids, and `_layers` the (DF)
layer index, each code's lower and upper basis codes.  The (DF) sweeps read
codes by layer pair, 558 pairs for the 5,959 delta-matroids at n = 4, and build
no delta-matroid: codes, matroids and index hold 0.33 MB, 0.59 MB after every
sweep (tracemalloc).  Per-pair work is shared within one sweep and redone by a
repeated sweep.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Iterator, Optional

from .core import InputError, SetFamily, _code_layers, _complement, _decode_family, _exchange_failures, _exchange_ok
from .core import _exchange_witness, _sizes, _twists, _violation, default_ground
from .delta import DeltaMatroid, _delta_ok, is_pairable
from .matroids import Matroid
from .rigidity import Multigraph, _count_sparse
from .serialize import delta_to_json, graph_to_json, matroid_to_json


@dataclass
class SearchReport:
    """Outcome of one quantified check or search.

    `elapsed` is wall-clock seconds and is excluded from the canonical
    serialization so that reports compare byte-identical across runs.
    """

    property_id: str
    universe_size: int
    holds: bool
    witnesses: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "property_id": self.property_id,
            "universe_size": self.universe_size,
            "holds": self.holds,
            "witnesses": self.witnesses,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


# -- enumeration --------------------------------------------------------
# Family code: bit i set means subset-mask i is a member.  The code space
# at n holds 2^(2^n) - 1 nonempty families, 65,535 at n = 4.


def _codes_level(axiom: str, k: int, prev: tuple[int, ...]) -> list[int]:
    """Passing codes a | b << 2^(k-1) for a, b in prev (0, then the codes on
    k - 1 elements), b outer; the axiom runs only if the deletion and contraction
    of element k - 2, read off the code's four quarters, are both in prev."""
    half = 1 << (k - 1)
    q = half >> 1
    low = (1 << q) - 1
    known = set(prev)
    decided: dict[int, bool] = {}  # verdicts by code
    out = []
    for b in prev:
        b_del, b_con = (b & low) << q, (b >> q) << q
        for a in prev:
            c = a | b << half
            if c and (a & low) | b_del in known and (a >> q) | b_con in known:
                if c not in decided:
                    orbit = _twists(c, k) if axiom == "DF" else (c,)
                    decided.update(dict.fromkeys(orbit, _exchange_ok(c, axiom)))
                if decided[c]:
                    out.append(c)
    return out


@cache  # at most 10 entries: two axioms, n <= 4 (beyond, the InputError is not cached)
def _codes(axiom: str, n: int) -> tuple[int, ...]:
    """Ascending codes of every family on n elements that passes axiom.  Partners
    lie in F1 Δ F2, so deleting or contracting element k - 1 leaves a passing or
    empty family: level k pairs codes of level k - 1, high half outer, in order.
    (DF) is twist-invariant, as (F1 Δ S) Δ (F2 Δ S) = F1 Δ F2, so at n = 4 the
    kernel runs on 912 of the 11,612 candidates, one per orbit."""
    if not 0 <= n <= 4:
        raise InputError(f"exhaustive enumeration needs 0 <= n <= 4, got {n}")
    codes = [1]  # n = 0: the family {∅}
    for k in range(1, n + 1):
        codes = _codes_level(axiom, k, (0, *codes))
    return tuple(codes)


@cache  # as _codes: at most 5 entries
def _layers(n: int) -> tuple[tuple[int, int], ...]:
    """Per (DF) code at n, in code order, its (lower, upper) basis codes: the
    (MB) universe's own ints, in one tuple per distinct pair (558 at n = 4)."""
    own, pairs, out = {c: c for c in _codes("MB", n)}, {}, []
    for c in _codes("DF", n):
        lower, upper = _code_layers(c, n)
        if upper not in own or lower not in own:
            raise RuntimeError(f"{'upper' if upper not in own else 'lower'} layer of {_delta(c, n)!r} is missing from the (MB) universe")
        pair = own[lower], own[upper]
        out.append(pairs.setdefault(pair, pair))
    return tuple(out)


@cache  # as _codes: at most 10 entries
def _objects(axiom: str, n: int) -> tuple:
    """The certified matroids or delta-matroids in code order, a delta-matroid's
    upper and lower preset to the (MB) universe's own objects whose bases are
    the code's largest and smallest members."""
    codes, g = _codes(axiom, n), default_ground(n)
    if axiom == "MB":
        return tuple(Matroid._trusted(g, c) for c in codes)
    deltas = []
    for c, (upper, lower) in _by_pair(n, lambda upper, lower: (upper, lower)):
        d = DeltaMatroid._trusted(g, c)
        # fills the cached_properties as d is made: set once all 5,959 are made,
        # they took 2.0 MB against 0.7 MB (tracemalloc, CPython 3.11)
        d.upper, d.lower = upper, lower
        deltas.append(d)
    return tuple(deltas)


def _delta(code: int, n: int) -> DeltaMatroid:
    """The delta-matroid of a (DF) code on n elements, built only for a witness or a message."""
    return DeltaMatroid._trusted(default_ground(n), code)


def matroid_codes(n: int) -> list[int]:
    """Family codes of every basis family on n elements passing (MB)."""
    return list(_codes("MB", n))


def delta_codes(n: int) -> list[int]:
    """Family codes of every feasible family on n elements passing (DF)."""
    return list(_codes("DF", n))


def enumerate_matroids(n: int) -> Iterator[Matroid]:
    """Every matroid on n labeled elements, once, in canonical code order."""
    yield from _objects("MB", n)


def enumerate_delta_matroids(n: int) -> Iterator[DeltaMatroid]:
    """Every delta-matroid on n labeled elements, once, in canonical code order."""
    yield from _objects("DF", n)


# -- property checks ----------------------------------------------------
# Each property's sweep at n gives one entry per case it checks, in order: None
# when the case holds, else a JSON-ready witness.  (MB) sweeps read each
# matroid's codes, a realization by the exchange verdict on the code and its
# least and greatest size layers against two basis codes.  (DF) sweeps decide
# once per layer pair, then read each code against its pair's value: one AND or
# one set lookup, and a delta-matroid only for a witness.


def _by_pair(n: int, decide: Callable[[Matroid, Matroid], object]) -> Iterator[tuple[int, Any]]:
    """Each (DF) code at n, in code order, with its pair's decide(upper, lower),
    run on the (MB) universe's objects once per distinct pair, in order of first use."""
    mats = dict(zip(_codes("MB", n), _objects("MB", n)))
    layers = _layers(n)
    values = {pair: decide(mats[pair[1]], mats[pair[0]]) for pair in dict.fromkeys(layers)}
    return zip(_codes("DF", n), map(values.__getitem__, layers))


def _equicardinal_cases(n: int) -> Iterator[Optional[dict]]:
    for m in _objects("MB", n):
        lower, upper = _code_layers(m._bases, n)
        yield None if lower == upper else {"ground": list(m.ground.labels), "members": m.bases.member_labels()}


def _realizes(code: int, upper: int, lower: int, n: int) -> bool:
    """Whether the family with 2^n-bit code is a delta-matroid whose upper and
    lower matroids have the basis codes upper and lower."""
    return _delta_ok(code) and _code_layers(code, n) == (lower, upper)


def _independents_cases(n: int) -> Iterator[Optional[dict]]:
    for m in _objects("MB", n):
        yield None if _realizes(m._indep, m._bases, 1, n) else matroid_to_json(m)


def _spanning_cases(n: int) -> Iterator[Optional[dict]]:
    for m in _objects("MB", n):
        yield None if _realizes(m._spanning, 1 << m.ground.full_mask, m._bases, n) else matroid_to_json(m)


def _uplow_cases(n: int) -> Iterator[Optional[dict]]:
    # some lower basis inside F, and F inside some upper basis: F in the sandwich
    for c, sandwich in _by_pair(n, lambda upper, lower: upper._indep & lower._spanning):
        yield None if c & ~sandwich == 0 else delta_to_json(_delta(c, n))


def _necessity_cases(n: int) -> Iterator[Optional[dict]]:
    for c, rep in _by_pair(n, is_pairable):
        yield None if rep.pairable else {**delta_to_json(_delta(c, n)), "offending_circuit": list(rep.offending_circuit.labels)}


def _dual_exchange_cases(n: int) -> Iterator[Optional[dict]]:
    # the complement is in the universe with the duals as its layers (its
    # lower the upper's dual) iff it is in the codes of that layer pair
    group: dict[tuple[int, int], set[int]] = {}
    for c, pair in zip(_codes("DF", n), _layers(n)):
        group.setdefault(pair, set()).add(c)
    dual = {m._bases: m.dual()._bases for m in _objects("MB", n)}
    for c, twins in _by_pair(n, lambda upper, lower: group.get((dual[upper._bases], dual[lower._bases]), ())):
        yield None if _complement(c, n) in twins else delta_to_json(_delta(c, n))


def _augmentation_breaks(code: int, lo: int, hi: int, n: int) -> bool:
    """True iff adding any one further subset to the family with 2^n-bit code
    breaks symmetric exchange or changes its upper (rank hi) or lower (rank lo)
    matroid.  An extra of at most rank lo changes the lower matroid, one of at
    least rank hi the upper; one strictly between leaves both unchanged."""
    extras = sum(_sizes(n)[lo + 1:hi]) & ~code
    return not any(_delta_ok(code | 1 << x) for x in _decode_family(extras))


def _fmax_pair(upper: Matroid, lower: Matroid) -> list[tuple[str, int, bool]]:
    """(variant, fmax family code, whether it is a maximal delta-matroid with
    this upper and lower) for each variant whose side is uniform; both
    variants' family is the sandwich, so one verdict serves both."""
    variants = [v for v, side in (("upper-uniform", upper), ("lower-uniform", lower)) if side.is_uniform()]
    if not variants:
        return []
    n, fam = upper.ground.size, upper._indep & lower._spanning
    ok = _realizes(fam, upper._bases, lower._bases, n) and _augmentation_breaks(fam, lower.rank, upper.rank, n)
    return [(variant, fam, ok) for variant in variants]


def _fmax_cases(n: int) -> Iterator[Optional[dict]]:
    for c, verdicts in _by_pair(n, _fmax_pair):
        for variant, fam, ok in verdicts:
            yield None if ok and c & ~fam == 0 else {**delta_to_json(_delta(c, n)), "variant": variant}


def constrained_realization(mu: Matroid, ml: Matroid) -> tuple[Optional[tuple[int, ...]], int]:
    """The first feasible-family candidate, in canonical order, that realizes (mu, ml).

    Any realizing family must contain all bases of both matroids and sit
    inside the sandwich family, so candidates are exactly the subfamilies of
    the sandwich containing the forced bases.  One (DF) pass first seeks a
    replay triple, two forced bases and a pivot with no partner in the
    sandwich, which rules out every candidate (Bouchet 1987); up to n = 4 it
    finds one for every unrealizable pair, so the 2^k candidates are tried
    only when it finds none.  Returns (family, candidates tried) for the first
    realization, (None, 2^k) when none realizes the pair, or (None, 0) when
    a forced basis lies outside the sandwich.
    """
    if mu.ground != ml.ground:
        raise InputError("sandwich requires a common ground set")
    forced, sandwich = mu._bases | ml._bases, mu._indep & ml._spanning
    if forced & ~sandwich:
        return None, 0
    free = _decode_family(sandwich & ~forced)
    if next(_exchange_failures(forced, sandwich, "DF"), None) is not None:
        return None, 1 << len(free)
    for sel in range(1 << len(free)):
        code = forced | sum(1 << f for k, f in enumerate(free) if sel >> k & 1)
        if _delta_ok(code):
            return _decode_family(code), sel + 1
    return None, 1 << len(free)


def _pair_scan(ms: list[Matroid]) -> Iterator[tuple[int, int, bool, bool]]:
    """(i, j, whether ms[j] is a quotient of ms[i], whether no basis of either leaves their sandwich) per
    ordered pair of ms, i outer: the quotient test and both basis conditions, ANDs of codes read once."""
    rows = [(m._bases, m._indep, m._spanning, m._circuits, m._unions) for m in ms]
    for i, (bu, iu, _, cu, _) in enumerate(rows):
        for j, (bl, _, sl, _, ul) in enumerate(rows):
            yield i, j, cu & ~ul == 0, (bu | bl) & ~(iu & sl) == 0


def _sufficiency_cases(n: int) -> Iterator[Optional[dict]]:
    ms = _objects("MB", n)
    for i, j, quotient, meets in _pair_scan(ms):
        mu, ml, extra = ms[i], ms[j], {}
        if quotient:
            ok, kind = _realizes(mu._indep & ml._spanning, mu._bases, ml._bases, n), "sandwich-failed"
        elif not meets:
            ok = True
        else:
            found, _ = constrained_realization(mu, ml)
            ok, kind = found is None, "realization-despite-unpairable"
            extra = {} if ok else {"feasibles": SetFamily(mu.ground, found).member_labels()}
        yield None if ok else {"kind": kind, "upper": matroid_to_json(mu), "lower": matroid_to_json(ml), **extra}


#: property id -> its sweep at n, in report order
_PROPERTIES: dict[str, Callable[[int], Iterator[Optional[dict]]]] = {
    "mb-equicardinal": _equicardinal_cases,
    "independents-are-delta": _independents_cases,
    "spanning-are-delta": _spanning_cases,
    "uplow": _uplow_cases,
    "necessity-circuit-union": _necessity_cases,
    "sufficiency-sandwich": _sufficiency_cases,
    "dual-exchange": _dual_exchange_cases,
    "fmax-maximal": _fmax_cases,
}
PROPERTY_IDS = tuple(_PROPERTIES)


def verify_property(property_id: str, n: int) -> SearchReport:
    """Run one registered quantified check over the full universe at size n."""
    if property_id not in _PROPERTIES:
        raise InputError(f"unknown property id {property_id!r}; known: {', '.join(PROPERTY_IDS)}")
    t0 = time.monotonic()
    results = list(_PROPERTIES[property_id](n))
    witnesses = [w for w in results if w is not None]
    return SearchReport(
        property_id=property_id,
        universe_size=len(results),
        holds=not witnesses,
        witnesses=witnesses,
        elapsed=time.monotonic() - t0,
    )


# -- unpairable-pair search ---------------------------------------------


def _canonical_assignments(n: int, v: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Assignments of n edges to vertex pairs (i, j), i <= j < v, that no vertex
    relabelling makes lexicographically smaller, in lexicographic order.  On pair
    indices, k is ruled out if a relabelling tied on the prefix maps it lower, and
    one that maps it higher leaves the tied mask, as every extension stays larger."""
    pairs = [(i, j) for i in range(v) for j in range(i, v)]
    maps = [[pairs.index(tuple(sorted((p[i], p[j])))) for i, j in pairs] for p in itertools.permutations(range(v))]
    below = [sum(1 << t for t, r in enumerate(maps) if r[k] < k) for k in range(len(pairs))]
    fixes = [sum(1 << t for t, r in enumerate(maps) if r[k] == k) for k in range(len(pairs))]

    def extend(prefix: tuple[int, ...], tied: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if len(prefix) == n:
            yield tuple(map(pairs.__getitem__, prefix))
        else:
            for k in range(len(pairs)):
                if not tied & below[k]:
                    yield from extend((*prefix, k), tied & fixes[k])

    return extend((), (1 << len(maps)) - 1)


def _graphic_pool(n: int, max_vertices: int) -> list[tuple[Matroid, Multigraph]]:
    """Distinct cycle matroids of n-edge multigraphs on up to max_vertices
    vertices, each paired with the first graph realizing it, in canonical
    graph-enumeration order, from `_canonical_assignments` on v = 1, 2, ...
    vertices (1,435 of 8,020 at n = 5, v <= 3).  An assignment is keyed by its
    bases' indicator, and only a new key builds its graph and matroid, whose
    bases that key already lists.  The key comes from one count pass per form
    of an assignment: its edge vertex masks with each loop as 0 and vertices
    renamed in order of first appearance, which keep the forests (257 forms
    at n = 5)."""
    edge_labels = default_ground(n).labels
    seen: dict[int, tuple[Matroid, Multigraph]] = {}
    keys: dict[tuple[int, ...], int] = {}
    for v in range(1, max_vertices + 1):
        vertices = tuple(f"v{i + 1}" for i in range(v))
        for assignment in _canonical_assignments(n, v):
            ids: dict[int, int] = {}
            form = tuple(0 if i == j else sum(1 << ids.setdefault(u, len(ids)) for u in (i, j)) for i, j in assignment)
            if form not in keys:
                keys[form] = _count_sparse(form, 1, 1)[1]
            key = keys[form]
            if key not in seen:
                edges = tuple((edge_labels[k], (vertices[i], vertices[j])) for k, (i, j) in enumerate(assignment))
                g = Multigraph(vertices, edges)
                seen[key] = (Matroid._trusted(g.ground, key), g)
    return list(seen.values())


def _pair_witness(upper: tuple[Matroid, Multigraph], lower: tuple[Matroid, Multigraph]) -> Optional[dict]:
    """Full witness for a pair of (cycle matroid, graph) pool entries whose
    matroids are no quotient pair yet meet both basis conditions, or None if
    some delta-matroid realizes them."""
    (mu, gu), (ml, gl) = upper, lower
    found, tried = constrained_realization(mu, ml)
    if found is not None:
        return None
    wit = {
        "upper": matroid_to_json(mu),
        "lower": matroid_to_json(ml),
        "offending_circuit": list(is_pairable(mu, ml).offending_circuit.labels),
        "candidates_exhausted": tried,
    }
    # the canonical replay triple, if any: forced sets and a pivot with no partner inside the sandwich
    triple = _exchange_witness(mu._bases | ml._bases, mu._indep & ml._spanning, "DF")
    if triple is not None:
        wit["replay"] = {k: v for k, v in _violation(mu.ground, triple, "DF").to_json().items() if k != "axiom"}
    wit["upper_graph"] = graph_to_json(gu)
    wit["lower_graph"] = graph_to_json(gl)
    return wit


def find_unpairable_pair(n: int) -> SearchReport:
    """Hunt for matroid pairs meeting both basis-level necessary conditions
    that still cannot be the upper and lower matroids of any delta-matroid.

    Scans ordered pairs of distinct cycle matroids of n-edge multigraphs (the
    counterexample in the source material is graphic); for n <= 3 that pool
    is every matroid on n elements.  The scan is ordered with early exit, so
    the result is deterministic.
    """
    if not 1 <= n <= 5:
        raise InputError(f"unpairable-pair search supports 1 <= n <= 5, got {n}")
    t0 = time.monotonic()
    # Vertex cap: 3 keeps the 5-edge scan at 1,435 canonical assignments of 8,020
    # while still covering the bridge-plus-parallel-edges shape the counterexample needs.
    pool = _graphic_pool(n, 3 if n >= 4 else n + 1)
    scan = _pair_scan([m for m, _ in pool])  # a matroid is its own quotient: no pair (m, m) is tried
    found = (_pair_witness(pool[i], pool[j]) for i, j, quotient, meets in scan if meets and not quotient)
    wit = next(filter(None, found), None)
    return SearchReport(
        property_id="unpairable-pair",
        universe_size=len(pool) * (len(pool) - 1),
        holds=wit is not None,
        witnesses=[] if wit is None else [wit],
        elapsed=time.monotonic() - t0,
    )
