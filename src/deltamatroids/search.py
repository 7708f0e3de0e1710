"""Exhaustive searches over small matroids, delta-matroids, and multigraph
pairs: theorem verification suites and the unpairable-pair hunt.

Each (axiom, n) universe is built once per process, level by level (families on
k elements from those on k - 1; one (DF) verdict per twist orbit): `_codes` and
`_objects` cache its codes and its certified objects, which keep their derived
sets, and a delta-matroid's upper and lower are (MB) universe objects.  At n = 4,
5,959 delta-matroids share 68 matroids in 2.1 MB, 2.6 MB after every sweep
(tracemalloc).  Per-matroid and per-pair work is shared within one sweep and
redone by a repeated sweep.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator, Optional, Sequence

from .core import GroundSet, InputError, default_ground
from .delta import (
    DeltaMatroid,
    _delta_ok,
    _layers,
    construct_sandwich,
    fmax_lower_uniform,
    fmax_upper_uniform,
    is_pairable,
)
from .matroids import Matroid, _coordinates, _decode_family, _exchange_ok, _exchange_witness
from .rigidity import Multigraph, cycle_matroid
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
                    decided.update(dict.fromkeys(orbit, _exchange_ok(_decode_family(c), axiom)))
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
    """The universe's certified objects in code order; a (DF) object's upper
    and lower are the (MB) universe's own objects."""
    codes, g = _codes(axiom, n), default_ground(n)
    if axiom == "MB":
        return tuple(Matroid._trusted(g, _decode_family(c)) for c in codes)
    by_bases = {m.bases.masks: m for m in _objects("MB", n)}
    out = []
    for c in codes:  # filled as built: 1.3 MB less at n = 4 than filling afterwards
        out.append(d := DeltaMatroid._trusted(g, masks := _decode_family(c)))
        for name, layer in zip(("upper", "lower"), _layers(masks)[::-1]):
            if (m := by_bases.get(layer)) is None:
                raise RuntimeError(f"{name} layer of {d!r} is missing from the (MB) universe")
            setattr(d, name, m)  # fills the cached_property
    return tuple(out)


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
# checks on obj: None when the case holds, else a JSON-ready witness.
# `universe` holds every object of the property's universe, for properties
# that pair; `memo` lives for one sweep, for results its objects share.


def _once(memo: dict, key: tuple, make: Callable):
    if (value := memo.get(key)) is None:  # one lookup on a hit: no value is None
        value = memo[key] = make()
    return value


def _family_json(g: GroundSet, masks: Sequence[int]) -> dict:
    return {"ground": list(g.labels), "members": [list(g.labels_of(m)) for m in sorted(masks)]}


def _equicardinal_cases(m: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    masks = m.bases.masks
    yield _family_json(m.ground, masks) if len({b.bit_count() for b in masks}) > 1 else None


def _realizes(masks: tuple[int, ...], upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    """Whether masks, a SetFamily's (ascending, no repeats), is a delta-matroid
    whose upper and lower matroids have the given bases."""
    return _delta_ok(masks) and _layers(masks) == (lower, upper)


def _independents_cases(m: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    yield None if _realizes(m.independents().masks, m.bases.masks, (0,)) else matroid_to_json(m)


def _spanning_cases(m: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    full = (m.ground.full_mask,)
    yield None if _realizes(m.spanning_sets().masks, full, m.bases.masks) else matroid_to_json(m)


def _uplow_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    # some lower basis inside F, and F inside some upper basis
    sandwich = d.upper._indep & d.lower._spanning
    yield None if all(sandwich >> f & 1 for f in d.feasibles.masks) else delta_to_json(d)


def _necessity_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    rep = is_pairable(d.upper, d.lower)
    yield None if rep.pairable else {**delta_to_json(d), "offending_circuit": list(rep.offending_circuit.labels)}


def _dual_exchange_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    ds = d.complement_dual()
    dual_up, dual_low = (_once(memo, ("dual", m), m.dual) for m in (d.upper, d.lower))
    families = _once(memo, ("families",), lambda: frozenset(o.feasibles.masks for o in universe))
    ok = ds.feasibles.masks in families  # the twist by E is a delta-matroid
    ok = ok and _layers(ds.feasibles.masks) == (dual_up.bases.masks, dual_low.bases.masks)
    yield None if ok else delta_to_json(d)


def _augmentation_breaks(d: DeltaMatroid) -> bool:
    """True iff adding any single further subset breaks symmetric exchange
    or changes the upper or lower matroid.  An extra of at most the lower
    rank changes the lower matroid, one of at least the upper rank the upper;
    one strictly between leaves both unchanged."""
    have = set(d.feasibles.masks)
    lo, hi = d.lower.rank, d.upper.rank
    return not any(
        lo < x.bit_count() < hi and x not in have and _delta_ok(tuple(sorted(have | {x})))
        for x in d.ground.all_masks()
    )


def _fmax_pair(d: DeltaMatroid, build: Callable) -> tuple[frozenset[int], bool]:
    """(fmax family of d's upper and lower, whether it is a maximal delta-matroid with those layers)."""
    masks = build(d).masks
    ok = _realizes(masks, d.upper.bases.masks, d.lower.bases.masks)
    return frozenset(masks), ok and _augmentation_breaks(DeltaMatroid._trusted(d.ground, masks))


def _fmax_cases(d: DeltaMatroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    for variant, applicable, build in (
        ("upper-uniform", d.upper.is_uniform(), fmax_upper_uniform),
        ("lower-uniform", d.lower.is_uniform(), fmax_lower_uniform),
    ):
        if not applicable:
            continue
        fam, ok = _once(memo, (variant, d.upper, d.lower), lambda: _fmax_pair(d, build))
        ok = ok and fam.issuperset(d.feasibles.masks)
        yield None if ok else {**delta_to_json(d), "variant": variant}


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
        masks = _decode_family(forced | sum(1 << f for k, f in enumerate(free) if sel >> k & 1))
        if _delta_ok(masks):
            return masks, sel + 1
    return None, 1 << len(free)


def _sufficiency_cases(mu: Matroid, universe: Sequence, memo: dict) -> Iterator[Optional[dict]]:
    for ml in universe:
        if is_pairable(mu, ml).pairable:
            if _realizes(construct_sandwich(mu, ml).masks, mu.bases.masks, ml.bases.masks):
                yield None
                continue
            kind, extra = "sandwich-failed", {}
        else:
            found, _ = constrained_realization(mu, ml)
            if found is None:
                yield None
                continue
            kind = "realization-despite-unpairable"
            extra = {"feasibles": _family_json(mu.ground, found)["members"]}
        yield {"kind": kind, "upper": matroid_to_json(mu), "lower": matroid_to_json(ml), **extra}


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


def _graphic_pool(n: int, max_vertices: int) -> list[tuple[Matroid, Multigraph]]:
    """Distinct cycle matroids of n-edge multigraphs on up to max_vertices
    vertices, each paired with the first graph realizing it, in canonical
    graph-enumeration order; isomorphic repeats, assignments that a vertex
    relabelling makes lexicographically smaller, are skipped."""
    edge_labels = default_ground(n).labels
    seen: dict[tuple[int, ...], tuple[Matroid, Multigraph]] = {}
    for v in range(1, max_vertices + 1):
        vertices = tuple(f"v{i + 1}" for i in range(v))
        pairs = [(i, j) for i in range(v) for j in range(i, v)]
        perms = list(itertools.permutations(range(v)))[1:]
        relabel = [{(i, j): tuple(sorted((p[i], p[j]))) for i, j in pairs} for p in perms]
        for assignment in itertools.product(pairs, repeat=n):
            if any(tuple(map(r.__getitem__, assignment)) < assignment for r in relabel):
                continue
            g = Multigraph(
                vertices,
                tuple(
                    (edge_labels[k], (vertices[i], vertices[j]))
                    for k, (i, j) in enumerate(assignment)
                ),
            )
            m = cycle_matroid(g)
            key = m.bases.masks
            if key not in seen:
                seen[key] = (m, g)
    return list(seen.values())


def _pair_witness(upper: tuple[Matroid, Multigraph], lower: tuple[Matroid, Multigraph]) -> Optional[dict]:
    """Full witness for one candidate pair of (cycle matroid, graph) pool
    entries, or None if it does not qualify."""
    (mu, gu), (ml, gl) = upper, lower
    rep = is_pairable(mu, ml)
    if rep.pairable:
        return None
    found, tried = constrained_realization(mu, ml)
    if found is not None or not tried:  # realizable, or a basis condition fails
        return None
    wit = {
        "upper": matroid_to_json(mu),
        "lower": matroid_to_json(ml),
        "offending_circuit": list(rep.offending_circuit.labels),
        "candidates_exhausted": tried,
    }
    # a forced-feasible pair and pivot with no exchange partner inside the
    # sandwich; its existence alone rules out any realizing delta-matroid
    forced = _decode_family(mu._bases | ml._bases)
    triple = _exchange_witness(forced, set(_decode_family(mu._indep & ml._spanning)), "DF")
    if triple is not None:
        f1, f2, xb = triple
        g = mu.ground
        wit["replay"] = {
            "first": list(g.labels_of(f1)),
            "second": list(g.labels_of(f2)),
            "pivot": g.labels[xb.bit_length() - 1],
        }
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
    # Vertex cap: 3 keeps the 5-edge scan at 6^5 graphs while still covering
    # the bridge-plus-parallel-edges shape the counterexample needs.
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
