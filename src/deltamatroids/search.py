"""Exhaustive searches over small matroids, delta-matroids, and multigraph
pairs: theorem verification suites and the unpairable-pair hunt.

Each (axiom, n) universe is built once per process, level by level (families on
k elements from those on k - 1; one (DF) verdict per twist orbit): `_codes`
caches its codes, and `_objects` its matroids or delta-matroids, each stored as
its code, the matroids keeping their derived sets and each delta-matroid's upper
and lower being (MB) universe objects.  At n = 4, 5,959 delta-matroids share 68
matroids in 0.9 MB, 1.4 MB after every sweep (tracemalloc).  Sweeps read these
codes and the matroids' indicators, building no family objects.  Per-matroid and
per-pair work is shared within one sweep and redone by a repeated sweep.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .core import InputError, SetFamily, default_ground
from .delta import DeltaMatroid, _delta_ok, is_pairable
from .matroids import Matroid, _code_layers, _complement, _coordinates, _decode_family, _exchange_ok, _exchange_witness
from .matroids import _sizes, _violation, is_quotient
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


def _twists(code: int, n: int) -> set[int]:
    """Codes of the twists F Δ S of a family on n elements, S any subset: the
    twist by element i swaps the code bits of masks with and without i."""
    orbit = {code}
    for i, has in enumerate(_coordinates(n)):
        s = 1 << i
        orbit |= {(c & has) >> s | (c ^ c & has) << s for c in orbit}
    return orbit


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
        raise InputError(f"exhaustive enumeration capped at n <= 4, got {n}")
    codes = [1]  # n = 0: the family {∅}
    for k in range(1, n + 1):
        codes = _codes_level(axiom, k, (0, *codes))
    return tuple(codes)


@cache  # as _codes: at most 10 entries
def _objects(axiom: str, n: int) -> tuple:
    """The certified matroids or delta-matroids in code order, a delta-matroid's
    upper and lower preset to the (MB) universe's own objects whose bases are
    the code's largest and smallest members."""
    codes, g = _codes(axiom, n), default_ground(n)
    if axiom == "MB":
        return tuple(Matroid._trusted(g, c) for c in codes)
    by_code = dict(zip(_codes("MB", n), _objects("MB", n)))
    deltas = []
    for c in codes:
        d = DeltaMatroid._trusted(g, c)
        lower, upper = _code_layers(c, n)
        for name, layer in (("upper", upper), ("lower", lower)):
            if layer not in by_code:
                raise RuntimeError(f"{name} layer of {d!r} is missing from the (MB) universe")
        d.upper, d.lower = by_code[upper], by_code[lower]  # fills the cached_properties
        deltas.append(d)
    return tuple(deltas)


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
# Each property's cases(obj, universe, memo) yields one entry per case it
# checks on obj: None when the case holds, else a JSON-ready witness.  An (MB)
# obj is a matroid, a (DF) obj a delta-matroid with its upper and lower; both
# are checked on codes, a realization by the exchange verdict on the code and
# its least and greatest size layers against two basis codes.  Only a witness
# decodes a family.  `universe` holds every obj of the property's universe,
# for properties that pair; `memo` lives for one sweep, for results its
# objects share, keyed by the basis codes of a matroid or pair.


def _once(memo: dict, key: Hashable, make: Callable):
    if (value := memo.get(key)) is None:  # one lookup on a hit: no value is None
        value = memo[key] = make()
    return value


def _equicardinal_cases(m: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    lower, upper = _code_layers(m._bases, m.ground.size)
    yield None if lower == upper else {"ground": list(m.ground.labels), "members": m.bases.member_labels()}


def _realizes(code: int, upper: int, lower: int, n: int) -> bool:
    """Whether the family with 2^n-bit code is a delta-matroid whose upper and
    lower matroids have the basis codes upper and lower."""
    return _delta_ok(code) and _code_layers(code, n) == (lower, upper)


def _independents_cases(m: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    yield None if _realizes(m._indep, m._bases, 1, m.ground.size) else matroid_to_json(m)


def _spanning_cases(m: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    yield None if _realizes(m._spanning, 1 << m.ground.full_mask, m._bases, m.ground.size) else matroid_to_json(m)


def _uplow_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    # some lower basis inside F, and F inside some upper basis
    yield None if d._feasibles & ~(d.upper._indep & d.lower._spanning) == 0 else delta_to_json(d)


def _necessity_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    upper, lower = d.upper, d.lower
    rep = _once(memo, (upper._bases, lower._bases), lambda: is_pairable(upper, lower))
    yield None if rep.pairable else {**delta_to_json(d), "offending_circuit": list(rep.offending_circuit.labels)}


def _dual_exchange_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    upper, lower, n = d.upper, d.lower, d.ground.size
    duals = _once(memo, (upper._bases, lower._bases), lambda: tuple(
        _once(memo, m._bases, lambda: m.dual()._bases) for m in (upper, lower)
    ))
    families = _once(memo, "families", lambda: frozenset(e._feasibles for e in universe))
    twisted = _complement(d._feasibles, n)
    ok = twisted in families and _code_layers(twisted, n) == duals  # lower of the twist: upper's dual
    yield None if ok else delta_to_json(d)


def _augmentation_breaks(code: int, lo: int, hi: int, n: int) -> bool:
    """True iff adding any one further subset to the family with 2^n-bit code
    breaks symmetric exchange or changes its upper (rank hi) or lower (rank lo)
    matroid.  An extra of at most rank lo changes the lower matroid, one of at
    least rank hi the upper; one strictly between leaves both unchanged."""
    extras = sum(_sizes(n)[lo + 1:hi]) & ~code
    return not any(_delta_ok(code | 1 << x) for x in _decode_family(extras))


def _fmax_pair(d: DeltaMatroid) -> list[tuple[str, int, bool]]:
    """(variant, fmax family code, whether it is a maximal delta-matroid with
    d's upper and lower) for each variant whose side is uniform; both
    variants' family is the sandwich, so one verdict serves both."""
    upper, lower = d.upper, d.lower
    variants = [v for v, side in (("upper-uniform", upper), ("lower-uniform", lower)) if side.is_uniform()]
    if not variants:
        return []
    n, fam = upper.ground.size, upper._indep & lower._spanning
    ok = _realizes(fam, upper._bases, lower._bases, n) and _augmentation_breaks(fam, lower.rank, upper.rank, n)
    return [(variant, fam, ok) for variant in variants]


def _fmax_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    for variant, fam, ok in _once(memo, (d.upper._bases, d.lower._bases), lambda: _fmax_pair(d)):
        yield None if ok and d._feasibles & ~fam == 0 else {**delta_to_json(d), "variant": variant}


def constrained_realization(mu: Matroid, ml: Matroid) -> tuple[Optional[tuple[int, ...]], int]:
    """Exhaust every feasible-family candidate that could realize (mu, ml).

    Any realizing family must contain all bases of both matroids and sit
    inside the sandwich family, so candidates are exactly the subfamilies of
    the sandwich containing the forced bases.  Returns (family, candidates
    tried) for the first realization in canonical order, (None, total) when
    none realizes the pair, or (None, 0) when a forced basis lies outside
    the sandwich.
    """
    if mu.ground != ml.ground:
        raise InputError("sandwich requires a common ground set")
    forced, sandwich = mu._bases | ml._bases, mu._indep & ml._spanning
    if forced & ~sandwich:
        return None, 0
    free = _decode_family(sandwich & ~forced)
    for sel in range(1 << len(free)):
        code = forced | sum(1 << f for k, f in enumerate(free) if sel >> k & 1)
        if _delta_ok(code):
            return _decode_family(code), sel + 1
    return None, 1 << len(free)


def _sufficiency_cases(mu: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    for ml in universe:
        sandwich = mu._indep & ml._spanning
        if is_quotient(ml, mu):
            ok = _realizes(sandwich, mu._bases, ml._bases, mu.ground.size)
            kind, extra = "sandwich-failed", {}
        elif (mu._bases | ml._bases) & ~sandwich:  # a basis condition fails
            ok = True
        else:
            found, _ = constrained_realization(mu, ml)
            ok, kind = found is None, "realization-despite-unpairable"
            extra = {} if ok else {"feasibles": SetFamily(mu.ground, found).member_labels()}
        yield None if ok else {"kind": kind, "upper": matroid_to_json(mu), "lower": matroid_to_json(ml), **extra}


#: property id -> (universe axiom, cases), in report order
_PROPERTIES: dict[str, tuple[str, Callable]] = {
    "mb-equicardinal": ("MB", _equicardinal_cases),
    "independents-are-delta": ("MB", _independents_cases),
    "spanning-are-delta": ("MB", _spanning_cases),
    "uplow": ("DF", _uplow_cases),
    "necessity-circuit-union": ("DF", _necessity_cases),
    "sufficiency-sandwich": ("MB", _sufficiency_cases),
    "dual-exchange": ("DF", _dual_exchange_cases),
    "fmax-maximal": ("DF", _fmax_cases),
}
PROPERTY_IDS = tuple(_PROPERTIES)


def verify_property(property_id: str, n: int) -> SearchReport:
    """Run one registered quantified check over the full universe at size n."""
    if property_id not in _PROPERTIES:
        raise InputError(f"unknown property id {property_id!r}; known: {', '.join(PROPERTY_IDS)}")
    t0 = time.monotonic()
    axiom, cases = _PROPERTIES[property_id]
    universe, memo = _objects(axiom, n), {}
    results = [w for obj in universe for w in cases(obj, universe, memo)]
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
    bases' indicator, from its edge vertex masks, and only a new key builds
    its graph and matroid, whose bases that key already lists."""
    edge_labels = default_ground(n).labels
    seen: dict[int, tuple[Matroid, Multigraph]] = {}
    for v in range(1, max_vertices + 1):
        vertices = tuple(f"v{i + 1}" for i in range(v))
        for assignment in _canonical_assignments(n, v):
            key = _count_sparse(tuple(1 << i | 1 << j for i, j in assignment), 1, 1)[1]
            if key not in seen:
                edges = tuple((edge_labels[k], (vertices[i], vertices[j])) for k, (i, j) in enumerate(assignment))
                g = Multigraph(vertices, edges)
                seen[key] = (Matroid._trusted(g.ground, key), g)
    return list(seen.values())


def _pair_witness(upper: tuple[Matroid, Multigraph], lower: tuple[Matroid, Multigraph]) -> Optional[dict]:
    """Full witness for one candidate pair of (cycle matroid, graph) pool
    entries, or None if it does not qualify."""
    (mu, gu), (ml, gl) = upper, lower
    forced, sandwich = mu._bases | ml._bases, mu._indep & ml._spanning
    if is_quotient(ml, mu) or forced & ~sandwich:
        return None  # pairable, or a basis condition fails
    found, tried = constrained_realization(mu, ml)
    if found is not None:
        return None
    wit = {
        "upper": matroid_to_json(mu),
        "lower": matroid_to_json(ml),
        "offending_circuit": list(is_pairable(mu, ml).offending_circuit.labels),
        "candidates_exhausted": tried,
    }
    # a forced-feasible pair and pivot with no exchange partner inside the
    # sandwich; its existence alone rules out any realizing delta-matroid
    triple = _exchange_witness(forced, sandwich, "DF")
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
    pairs = itertools.permutations(pool, 2)
    wit = next((w for w in itertools.starmap(_pair_witness, pairs) if w is not None), None)
    return SearchReport(
        property_id="unpairable-pair",
        universe_size=len(pool) * (len(pool) - 1),
        holds=wit is not None,
        witnesses=[] if wit is None else [wit],
        elapsed=time.monotonic() - t0,
    )
