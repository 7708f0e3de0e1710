"""Exhaustive searches over small matroids and delta-matroids: theorem
verification suites and the unpairable-pair hunt.

Each universe at n is built once per process from its own cached level
n - 1: `_matroids` by single-element extension (`_extend`, one AND per
rank-adjacent pair of the level below, no exchange check), the only objects
kept, with their derived sets; `_codes` the (DF) codes, one verdict per twist
orbit, walked from the candidates holding ∅, each orbit its candidate's own
twists; and `_layers` the (DF) layer index, each code's lower and upper basis
codes, read from the code's extreme size layers and no further.  The (DF)
sweeps read codes by layer pair, 558 pairs for the 5,959 delta-matroids at
n = 4, and build no delta-matroid; `enumerate_delta_matroids` makes them
afresh on each pass.  A cold (DF) level 4 and its layer index build in
17–18 ms (2 vCPUs, Python 3.11.7).  At most 5 code universes, 5 matroid
universes and 5 layer indexes: 0.42 MB after every n = 4 sweep
(tracemalloc).  Per-pair work is shared within one sweep only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Iterator, Optional

from .core import InputError, _code_layers, _complement, _decode_family, _exchange_failures, _exchange_ok
from .core import _exchange_witness, _sizes, _twists, _violation, default_ground
from .delta import DeltaMatroid, _delta_ok, is_pairable
from .matroids import Matroid
from .serialize import delta_to_json, matroid_to_json


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


@cache  # at most 5 entries: n <= 4 (beyond, the InputError is not cached)
def _codes(n: int) -> tuple[int, ...]:
    """Ascending codes of every family on n elements that passes (DF), grown
    from the cached level n - 1.  Partners lie in F1 Δ F2, so deleting or
    contracting element n - 1 leaves a passing or empty family: the candidates
    are a | b << 2^(n-1) for a, b in prev (0, then level n - 1), b outer, and
    the axiom runs only if the deletion and contraction of element n - 2, read
    off the code's four quarters, are both in prev.  (DF) is twist-invariant,
    as (F1 Δ S) Δ (F2 Δ S) = F1 Δ F2, and so is that quarter test, so one
    verdict keeps or drops a whole twist orbit.  Every orbit holds a family
    with ∅ (twist by a member), so only candidates whose a holds ∅ are tried:
    over a cold build to n = 4, 6,069 of them pass the quarter test, of the
    11,612 candidates that do, for 912 verdicts, each with its candidate's own
    twists as the orbit."""
    if not 0 <= n <= 4:
        raise InputError(f"exhaustive enumeration needs 0 <= n <= 4, got {n}")
    if n == 0:
        return (1,)  # the family {∅}
    prev = (0, *_codes(n - 1))
    half = 1 << (n - 1)
    q = half >> 1
    low = (1 << q) - 1
    known = set(prev)
    tops = [a for a in prev if a & 1]  # the families holding ∅
    seen, out = {0}, set()  # 0, the empty family, is no candidate
    for b in prev:
        b_del, b_con = (b & low) << q, (b >> q) << q
        for a in tops:
            c = a | b << half
            if c not in seen and (a & low) | b_del in known and (a >> q) | b_con in known:
                orbit = _twists(c, n)
                seen.update(orbit)
                if _exchange_ok(c, "DF"):
                    out.update(orbit)
    return tuple(sorted(out))


@cache  # as _codes: at most 5 entries
def _layers(n: int) -> tuple[tuple[int, int], ...]:
    """Per (DF) code at n, in code order, its (lower, upper) basis codes, each
    a basis code of the matroid universe, one tuple per distinct pair (558 at n = 4)."""
    known, pairs, out = {m._bases for m in _matroids(n)}, {}, []
    for c in _codes(n):
        pair = lower, upper = _code_layers(c, n)
        if upper not in known or lower not in known:
            raise RuntimeError(f"{'upper' if upper not in known else 'lower'} layer of {_delta(c, n)!r} is missing from the (MB) universe")
        out.append(pairs.setdefault(pair, pair))
    return tuple(out)


def _extend(prev: tuple[Matroid, ...], n: int) -> tuple[Matroid, ...]:
    """The matroids on n elements in code order, from prev, those on n - 1.
    In each, the last element e is a loop (the bases a of a matroid in prev), a
    coloop (code b << 2^(n-1), b in prev), or neither: then deleting e leaves
    bases a and contracting it bases b, a quotient of a of rank one less, and
    each such pair extends to exactly one matroid, a | b << 2^(n-1) (Crapo
    1965; Oxley, Matroid Theory, section 7.3).  So one AND per rank-adjacent
    pair builds the level, with no exchange check: 1,110 pairs at n = 5, for
    406 matroids."""
    half, g = 1 << (n - 1), default_ground(n)
    codes = [m._bases for m in prev] + [m._bases << half for m in prev]
    codes += [a._bases | b._bases << half for a in prev for b in prev if b.rank == a.rank - 1 and a._circuits & ~b._unions == 0]
    return tuple(Matroid._trusted(g, c) for c in sorted(codes))


@cache  # as _codes: at most 5 entries
def _matroids(n: int) -> tuple[Matroid, ...]:
    """The matroids on n elements in code order, with the derived sets they
    cache, extended from the cached level n - 1."""
    if not 0 <= n <= 4:
        raise InputError(f"exhaustive enumeration needs 0 <= n <= 4, got {n}")
    return _extend(_matroids(n - 1), n) if n else (Matroid._trusted(default_ground(0), 1),)


def _delta(code: int, n: int) -> DeltaMatroid:
    """The delta-matroid of a (DF) code on n elements, built only for a witness or a message."""
    return DeltaMatroid._trusted(default_ground(n), code)


def matroid_codes(n: int) -> list[int]:
    """Family codes of every basis family on n elements passing (MB)."""
    return [m._bases for m in _matroids(n)]


def delta_codes(n: int) -> list[int]:
    """Family codes of every feasible family on n elements passing (DF)."""
    return list(_codes(n))


def enumerate_matroids(n: int) -> Iterator[Matroid]:
    """Every matroid on n labeled elements, once, in canonical code order."""
    yield from _matroids(n)


def enumerate_delta_matroids(n: int) -> Iterator[DeltaMatroid]:
    """Every delta-matroid on n labeled elements, once, in canonical code order, made
    afresh on each pass, its upper and lower the matroid universe's own objects."""
    for c, (upper, lower) in _by_pair(n, lambda upper, lower: (upper, lower)):
        d = DeltaMatroid._trusted(upper.ground, c)
        d.upper, d.lower = upper, lower
        yield d


# -- property checks ----------------------------------------------------
# Each property's sweep at n gives one entry per case it checks, in order: None
# when the case holds, else a JSON-ready witness.  (MB) sweeps read each
# matroid's codes, a realization by the exchange verdict on the code and its
# least and greatest size layers against two basis codes.  (DF) sweeps read each
# code against its layer pair's value, decided once per pair, or look its
# complement up in the layer index, and build a delta-matroid only for a witness.


def _by_pair(n: int, decide: Callable[[Matroid, Matroid], object]) -> Iterator[tuple[int, Any]]:
    """Each (DF) code at n, in code order, with its pair's decide(upper, lower),
    run on the matroid universe's objects once per distinct pair, in order of first use."""
    mats = {m._bases: m for m in _matroids(n)}
    layers = _layers(n)
    values = {pair: decide(mats[pair[1]], mats[pair[0]]) for pair in dict.fromkeys(layers)}
    return zip(_codes(n), map(values.__getitem__, layers))


def _equicardinal_cases(n: int) -> Iterator[Optional[dict]]:
    for m in _matroids(n):
        lower, upper = _code_layers(m._bases, n)
        yield None if lower == upper else {"ground": list(m.ground.labels), "members": m.bases.member_labels()}


def _realizes(code: int, upper: int, lower: int, n: int) -> bool:
    """Whether the family with 2^n-bit code is a delta-matroid whose upper and
    lower matroids have the basis codes upper and lower."""
    return _delta_ok(code) and _code_layers(code, n) == (lower, upper)


def _independents_cases(n: int) -> Iterator[Optional[dict]]:
    for m in _matroids(n):
        yield None if _realizes(m._indep, m._bases, 1, n) else matroid_to_json(m)


def _spanning_cases(n: int) -> Iterator[Optional[dict]]:
    for m in _matroids(n):
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
    # lower the upper's dual) iff the layer index holds it with that pair
    layers = dict(zip(_codes(n), _layers(n)))
    dual = {m._bases: m.dual()._bases for m in _matroids(n)}
    for c, (lower, upper) in layers.items():
        yield None if layers.get(_complement(c, n)) == (dual[upper], dual[lower]) else delta_to_json(_delta(c, n))


def _augmentation_breaks(code: int, lo: int, hi: int, n: int) -> bool:
    """True iff adding any one further subset to the family with 2^n-bit code
    breaks symmetric exchange or changes its upper (rank hi) or lower (rank lo)
    matroid.  An extra of at most rank lo changes the lower matroid, one of at
    least rank hi the upper; one strictly between leaves both unchanged."""
    extras = sum(_sizes(n)[lo + 1:hi]) & ~code
    return not any(_delta_ok(code | 1 << x) for x in _decode_family(extras))


def _fmax_pair(upper: Matroid, lower: Matroid) -> tuple[list[str], int, bool]:
    """(the variants whose side is uniform, the fmax family code, whether it is a maximal
    delta-matroid with this upper and lower, decided only if some variant applies):
    both variants' family is the sandwich, so one verdict serves both."""
    variants = [v for v, side in (("upper-uniform", upper), ("lower-uniform", lower)) if side.is_uniform()]
    n, fam = upper.ground.size, upper._indep & lower._spanning
    ok = bool(variants) and _realizes(fam, upper._bases, lower._bases, n) and _augmentation_breaks(fam, lower.rank, upper.rank, n)
    return variants, fam, ok


def _fmax_cases(n: int) -> Iterator[Optional[dict]]:
    for c, (variants, fam, ok) in _by_pair(n, _fmax_pair):
        for variant in variants:
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


def _pair_scan(ms: tuple[Matroid, ...]) -> Iterator[tuple[int, int, bool, bool]]:
    """(i, j, whether ms[j] is a quotient of ms[i], whether no basis of either leaves their sandwich) per
    ordered pair of ms, i outer: the quotient test and both basis conditions, ANDs of codes read once."""
    rows = [(m._bases, m._indep, m._spanning, m._circuits, m._unions) for m in ms]
    for i, (bu, iu, _, cu, _) in enumerate(rows):
        for j, (bl, _, sl, _, ul) in enumerate(rows):
            yield i, j, cu & ~ul == 0, (bu | bl) & ~(iu & sl) == 0


def _sufficiency_cases(n: int) -> Iterator[Optional[dict]]:
    ms = _matroids(n)
    for i, j, quotient, meets in _pair_scan(ms):
        mu, ml, extra = ms[i], ms[j], {}
        if quotient:
            ok, kind = _realizes(mu._indep & ml._spanning, mu._bases, ml._bases, n), "sandwich-failed"
        elif not meets:
            ok = True
        else:
            found, _ = constrained_realization(mu, ml)
            ok, kind = found is None, "realization-despite-unpairable"
            extra = {} if ok else {"feasibles": mu.ground._label_lists(found)}
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


def _pair_witness(mu: Matroid, ml: Matroid) -> Optional[dict]:
    """Full witness for a matroid pair that is no quotient pair yet meets both
    basis conditions, or None if some delta-matroid realizes it."""
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
    return wit


def find_unpairable_pair(n: int) -> SearchReport:
    """Hunt for matroid pairs meeting both basis-level necessary conditions
    that still cannot be the upper and lower matroids of any delta-matroid.

    Scans ordered pairs of distinct matroids on n elements, in code order,
    extended from the cached matroids on n - 1 (406 at n = 5).  The scan
    stops at the first pair found, so the result is deterministic.
    """
    if not 1 <= n <= 5:
        raise InputError(f"unpairable-pair search supports 1 <= n <= 5, got {n}")
    t0 = time.monotonic()
    ms = _extend(_matroids(n - 1), n)
    scan = _pair_scan(ms)  # a matroid is its own quotient: no pair (m, m) is tried
    found = (_pair_witness(ms[i], ms[j]) for i, j, quotient, meets in scan if meets and not quotient)
    wit = next(filter(None, found), None)
    return SearchReport(
        property_id="unpairable-pair",
        universe_size=len(ms) * (len(ms) - 1),
        holds=wit is not None,
        witnesses=[] if wit is None else [wit],
        elapsed=time.monotonic() - t0,
    )
