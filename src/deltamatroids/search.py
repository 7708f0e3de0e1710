"""Exhaustive searches over small matroids, delta-matroids, and multigraph
pairs: theorem verification suites and the unpairable-pair hunt.

Candidate spaces are partitioned into contiguous chunks of the family-code
range and may be fanned out across worker processes; per-chunk results are
merged in chunk order, so reports are identical for any worker count.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .core import GroundSet, InputError, SetFamily, Subset, default_ground
from .delta import (
    DeltaMatroid,
    _decode_family,
    _delta_ok,
    construct_sandwich,
    fmax_lower_uniform,
    fmax_upper_uniform,
    is_pairable,
)
from .matroids import Matroid, _exchange_ok, _exchange_violation, uniform
from .rigidity import Multigraph, cycle_matroid
from .serialize import delta_to_json, graph_to_json, matroid_to_json

PROPERTY_IDS = (
    "mb-equicardinal",
    "independents-are-delta",
    "spanning-are-delta",
    "uplow",
    "necessity-circuit-union",
    "sufficiency-sandwich",
    "dual-exchange",
    "fmax-maximal",
)


@dataclass
class SearchReport:
    """Outcome of one quantified check or search.

    `elapsed` is wall-clock seconds and is excluded from the canonical
    serialization so that reports compare byte-identical across runs and
    worker counts.
    """

    property_id: str
    universe_size: int
    holds: bool
    witnesses: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self, include_elapsed: bool = False) -> dict:
        out = {
            "property_id": self.property_id,
            "universe_size": self.universe_size,
            "holds": self.holds,
            "witnesses": self.witnesses,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("DM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"DM_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _chunks(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    span = hi - lo
    if span <= 0:
        return []
    k = min(workers, span)
    step = -(-span // k)
    return [(lo + i * step, min(lo + (i + 1) * step, hi)) for i in range(k) if lo + i * step < hi]


def _map_chunks(fn: Callable, tasks: list[tuple], workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


# -- enumeration --------------------------------------------------------


def _check_enum_size(n: int) -> None:
    if not 0 <= n <= 4:
        raise InputError(f"exhaustive enumeration capped at n <= 4, got {n}")


def _mb_codes_chunk(n: int, start: int, stop: int) -> list[int]:
    return [c for c in range(start, stop) if _exchange_ok(_decode_family(c), "MB")]


def matroid_codes(n: int, workers: int = 1) -> list[int]:
    """Family codes of every basis family on n elements passing (MB)."""
    _check_enum_size(n)
    tasks = [(n, a, b) for a, b in _chunks(1, 1 << (1 << n), workers)]
    out: list[int] = []
    for part in _map_chunks(_mb_codes_chunk, tasks, workers):
        out.extend(part)
    return out


def enumerate_matroids(n: int, workers: int = 1) -> Iterator[Matroid]:
    """Every matroid on n labeled elements, once, in canonical code order."""
    g = default_ground(n)
    for code in matroid_codes(n, workers):
        yield Matroid._trusted(g, _decode_family(code))


def _delta_codes_chunk(n: int, start: int, stop: int) -> list[int]:
    return [c for c in range(start, stop) if _exchange_ok(_decode_family(c), "DF")]


def delta_codes(n: int, workers: int = 1) -> list[int]:
    _check_enum_size(n)
    tasks = [(n, a, b) for a, b in _chunks(1, 1 << (1 << n), workers)]
    out: list[int] = []
    for part in _map_chunks(_delta_codes_chunk, tasks, workers):
        out.extend(part)
    return out


# -- property chunk workers ---------------------------------------------
# Each worker scans a contiguous code range and returns (objects_checked,
# witnesses); witnesses are JSON-ready dicts.


def _family_json(g: GroundSet, masks: Sequence[int]) -> dict:
    return {"ground": list(g.labels), "members": [list(g.labels_of(m)) for m in sorted(masks)]}


def _prop_mb_equicardinal(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "MB"):
            continue
        count += 1
        if len({m.bit_count() for m in masks}) > 1:
            wit.append(_family_json(g, masks))
    return count, wit


def _prop_indep_delta(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "MB"):
            continue
        m = Matroid._trusted(g, masks)
        count += 1
        fam = m.independents()
        ok = _exchange_ok(fam.masks, "DF")
        if ok:
            d = DeltaMatroid._trusted(g, fam.masks)
            ok = d.lower.rank == 0 and d.upper == m
        if not ok:
            wit.append(matroid_to_json(m))
    return count, wit


def _prop_spanning_delta(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "MB"):
            continue
        m = Matroid._trusted(g, masks)
        count += 1
        fam = m.spanning_sets()
        ok = _exchange_ok(fam.masks, "DF")
        if ok:
            d = DeltaMatroid._trusted(g, fam.masks)
            ok = d.upper.rank == n and d.lower == m
        if not ok:
            wit.append(matroid_to_json(m))
    return count, wit


def _prop_uplow(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "DF"):
            continue
        d = DeltaMatroid._trusted(g, masks)
        count += 1
        lowers = d.lower.bases.masks
        uppers = d.upper.bases.masks
        for f in masks:
            if not any(lb & ~f == 0 for lb in lowers) or not any(f & ~ub == 0 for ub in uppers):
                wit.append(delta_to_json(d))
                break
    return count, wit


def _prop_necessity(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "DF"):
            continue
        d = DeltaMatroid._trusted(g, masks)
        count += 1
        rep = is_pairable(d.upper, d.lower)
        if not rep.pairable:
            w = delta_to_json(d)
            w["offending_circuit"] = list(rep.offending_circuit.labels)
            wit.append(w)
    return count, wit


def _prop_dual_exchange(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "DF"):
            continue
        d = DeltaMatroid._trusted(g, masks)
        count += 1
        ds = d.complement_dual()
        if ds.upper != d.lower.dual() or ds.lower != d.upper.dual():
            wit.append(delta_to_json(d))
    return count, wit


def _upper_lower_masks(masks: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    top = max(m.bit_count() for m in masks)
    bot = min(m.bit_count() for m in masks)
    return (
        tuple(m for m in masks if m.bit_count() == top),
        tuple(m for m in masks if m.bit_count() == bot),
    )


def _augmentation_breaks(g: GroundSet, fam: SetFamily) -> bool:
    """True iff adding any single further subset breaks symmetric exchange
    or changes the upper or lower matroid."""
    have = set(fam.masks)
    up, low = _upper_lower_masks(fam.masks)
    for extra in g.all_masks():
        if extra in have:
            continue
        aug = tuple(sorted(have | {extra}))
        if not _delta_ok(aug):
            continue
        if _upper_lower_masks(aug) == (up, low):
            return False
    return True


def _prop_fmax(n: int, start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    count = 0
    wit = []
    full_uniform = {k: uniform(k, g) for k in range(n + 1)}
    for code in range(start, stop):
        masks = _decode_family(code)
        if not _exchange_ok(masks, "DF"):
            continue
        d = DeltaMatroid._trusted(g, masks)
        for variant, applicable, build in (
            ("upper-uniform", d.upper == full_uniform[d.upper.rank], fmax_upper_uniform),
            ("lower-uniform", d.lower == full_uniform[d.lower.rank], fmax_lower_uniform),
        ):
            if not applicable:
                continue
            count += 1
            fam = build(d)
            ok = _delta_ok(fam.masks) and set(masks) <= set(fam.masks)
            if ok:
                dm = DeltaMatroid._trusted(g, fam.masks)
                ok = dm.upper == d.upper and dm.lower == d.lower and _augmentation_breaks(g, fam)
            if not ok:
                w = delta_to_json(d)
                w["variant"] = variant
                wit.append(w)
    return count, wit


def constrained_realization(mu: Matroid, ml: Matroid) -> tuple[Optional[tuple[int, ...]], int]:
    """Exhaust every feasible-family candidate that could realize (mu, ml).

    Any realizing family must contain all bases of both matroids and sit
    inside the sandwich family, so candidates are exactly the subfamilies of
    the sandwich containing the forced bases.  Returns (family, candidates
    tried) for the first realization in canonical order, or (None, total).
    """
    forced = set(mu.bases.masks) | set(ml.bases.masks)
    sandwich = set(construct_sandwich(mu, ml).masks)
    if not forced <= sandwich:
        return None, 0
    free = sorted(sandwich - forced)
    tried = 0
    for sel in range(1 << len(free)):
        masks = tuple(sorted(forced | {free[k] for k in range(len(free)) if sel >> k & 1}))
        tried += 1
        if _delta_ok(masks):
            return masks, tried
    return None, tried


def _prop_sufficiency(n: int, codes: tuple[int, ...], start: int, stop: int) -> tuple[int, list]:
    g = default_ground(n)
    mats = [Matroid._trusted(g, _decode_family(c)) for c in codes]
    count = 0
    wit = []
    for i in range(start, stop):
        mu = mats[i]
        for ml in mats:
            count += 1
            rep = is_pairable(mu, ml)
            if rep.pairable:
                fam = construct_sandwich(mu, ml)
                ok = _delta_ok(fam.masks)
                if ok:
                    d = DeltaMatroid._trusted(g, fam.masks)
                    ok = d.upper == mu and d.lower == ml
                if not ok:
                    wit.append(
                        {
                            "kind": "sandwich-failed",
                            "upper": matroid_to_json(mu),
                            "lower": matroid_to_json(ml),
                        }
                    )
            else:
                found, _ = constrained_realization(mu, ml)
                if found is not None:
                    wit.append(
                        {
                            "kind": "realization-despite-unpairable",
                            "upper": matroid_to_json(mu),
                            "lower": matroid_to_json(ml),
                            "feasibles": _family_json(g, found)["members"],
                        }
                    )
    return count, wit


_CODE_SPACE_PROPS = {
    "mb-equicardinal": _prop_mb_equicardinal,
    "independents-are-delta": _prop_indep_delta,
    "spanning-are-delta": _prop_spanning_delta,
    "uplow": _prop_uplow,
    "necessity-circuit-union": _prop_necessity,
    "dual-exchange": _prop_dual_exchange,
    "fmax-maximal": _prop_fmax,
}


def verify_property(property_id: str, n: int, workers: Optional[int] = None) -> SearchReport:
    """Run one registered quantified check over the full universe at size n."""
    if property_id not in PROPERTY_IDS:
        raise InputError(f"unknown property id {property_id!r}; known: {', '.join(PROPERTY_IDS)}")
    _check_enum_size(n)
    w = resolve_workers(workers)
    t0 = time.monotonic()
    if property_id == "sufficiency-sandwich":
        codes = tuple(matroid_codes(n, w))
        tasks = [(n, codes, a, b) for a, b in _chunks(0, len(codes), w)]
        parts = _map_chunks(_prop_sufficiency, tasks, w)
    else:
        fn = _CODE_SPACE_PROPS[property_id]
        tasks = [(n, a, b) for a, b in _chunks(1, 1 << (1 << n), w)]
        parts = _map_chunks(fn, tasks, w)
    count = sum(p[0] for p in parts)
    witnesses = [x for p in parts for x in p[1]]
    return SearchReport(
        property_id=property_id,
        universe_size=count,
        holds=not witnesses,
        witnesses=witnesses,
        elapsed=time.monotonic() - t0,
    )


# -- unpairable-pair search ---------------------------------------------


def _graphic_pool(n: int, max_vertices: int) -> list[tuple[Matroid, Multigraph]]:
    """Distinct cycle matroids of n-edge multigraphs on up to max_vertices
    vertices, each paired with the first graph realizing it, in canonical
    graph-enumeration order."""
    edge_labels = default_ground(n).labels
    seen: dict[tuple[int, ...], tuple[Matroid, Multigraph]] = {}
    for v in range(1, max_vertices + 1):
        vertices = tuple(f"v{i + 1}" for i in range(v))
        pairs = [(i, j) for i in range(v) for j in range(i, v)]
        for assignment in itertools.product(pairs, repeat=n):
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


def _basis_conditions(mu: Matroid, ml: Matroid) -> bool:
    indep = mu._indep_masks
    span = ml._spanning_masks
    return all(b in indep for b in ml.bases.masks) and all(b in span for b in mu.bases.masks)


def _pair_witness(
    g: GroundSet,
    mu: Matroid,
    ml: Matroid,
    graphs: Optional[tuple[Multigraph, Multigraph]],
) -> Optional[dict]:
    """Full witness for one candidate pair, or None if it does not qualify."""
    if not _basis_conditions(mu, ml):
        return None
    rep = is_pairable(mu, ml)
    if rep.pairable:
        return None
    found, tried = constrained_realization(mu, ml)
    if found is not None:  # genuinely realizable; not a witness
        return None
    wit = {
        "upper": matroid_to_json(mu),
        "lower": matroid_to_json(ml),
        "offending_circuit": list(rep.offending_circuit.labels),
        "candidates_exhausted": tried,
    }
    # a forced-feasible pair and pivot with no exchange partner inside the
    # sandwich; its existence alone rules out any realizing delta-matroid
    forced = sorted(set(mu.bases.masks) | set(ml.bases.masks))
    triple = _exchange_violation(forced, set(construct_sandwich(mu, ml).masks), "DF")
    if triple is not None:
        f1, f2, xb = triple
        wit["replay"] = {
            "first": list(g.labels_of(f1)),
            "second": list(g.labels_of(f2)),
            "pivot": g.labels[xb.bit_length() - 1],
        }
    if graphs is not None:
        wit["upper_graph"] = graph_to_json(graphs[0])
        wit["lower_graph"] = graph_to_json(graphs[1])
    return wit


def find_unpairable_pair(n: int, workers: Optional[int] = None) -> SearchReport:
    """Hunt for matroid pairs meeting both basis-level necessary conditions
    that still cannot be the upper and lower matroids of any delta-matroid.

    Multigraph cycle-matroid pairs are scanned first (the counterexample in
    the source material is graphic); for n <= 4 the scan then falls back to
    all matroid pairs.  The scan is ordered with early exit, so the result
    does not depend on the worker count.
    """
    if not 1 <= n <= 5:
        raise InputError(f"unpairable-pair search supports 1 <= n <= 5, got {n}")
    resolve_workers(workers)  # validated for interface parity; search is ordered
    t0 = time.monotonic()
    g = default_ground(n)
    # Vertex cap: 3 keeps the 5-edge scan at 6^5 graphs while still covering
    # the bridge-plus-parallel-edges shape the counterexample needs.
    max_v = 3 if n >= 4 else n + 1
    pool = _graphic_pool(n, max_v)
    universe = len(pool) * (len(pool) - 1)
    witnesses = []
    for (mu, gu), (ml, gl) in itertools.permutations(pool, 2):
        wit = _pair_witness(g, mu, ml, (gu, gl))
        if wit is not None:
            witnesses.append(wit)
            break
    if not witnesses and n <= 4:
        mats = list(enumerate_matroids(n))
        universe += len(mats) * (len(mats) - 1)
        for mu, ml in itertools.permutations(mats, 2):
            wit = _pair_witness(g, mu, ml, None)
            if wit is not None:
                witnesses.append(wit)
                break
    return SearchReport(
        property_id="unpairable-pair",
        universe_size=universe,
        holds=bool(witnesses),
        witnesses=witnesses,
        elapsed=time.monotonic() - t0,
    )
