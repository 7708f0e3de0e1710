"""Brute-force oracles the benchmark checks the program against.

Nothing here imports deltamatroids.  Every count and predicate is computed
from the definitions on plain int bit masks (bit i = element i), so a fault
in the program cannot hide inside its own check.
"""

from __future__ import annotations

from math import comb, prod

#: Labeled matroids on n = 0..4 elements (OEIS A058673).
MATROID_COUNTS = (1, 2, 5, 16, 68)


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def decode(code: int) -> list[int]:
    """Family code -> member masks: bit s of the code set means mask s is a member."""
    return bits(code)


def submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


# -- exchange axioms --------------------------------------------------------


def is_basis_family(fam: list[int]) -> bool:
    """(MB): for bases B1, B2 and x in B1 - B2 some y in B2 - B1 has
    B1 - x + y a basis.  Nonempty families only."""
    if not fam:
        return False
    members = set(fam)
    for b1 in fam:
        for b2 in fam:
            for x in bits(b1 & ~b2):
                if not any(((b1 ^ (1 << x)) | (1 << y)) in members for y in bits(b2 & ~b1)):
                    return False
    return True


def is_delta_family(fam: list[int]) -> bool:
    """Symmetric exchange: for F1, F2 and x in F1 Δ F2 some y in F1 Δ F2
    (y = x allowed) has F1 Δ {x, y} feasible.  Nonempty families only.

    For each F1 a table gives, per pivot x, the mask of every y with
    F1 Δ {x, y} feasible; a pair (F1, F2) then passes at x iff that mask
    meets F1 Δ F2.
    """
    if not fam:
        return False
    members = set(fam)
    width = max(fam).bit_length()
    singles = [1 << x for x in range(width)]
    for f1 in fam:
        partners = []
        for xb in singles:
            g = f1 ^ xb
            ym = xb if g in members else 0
            for yb in singles:
                if yb != xb and g ^ yb in members:
                    ym |= yb
            partners.append(ym)
        for f2 in fam:
            diff = f1 ^ f2
            for x in range(width):
                if diff >> x & 1 and not partners[x] & diff:
                    return False
    return True


def matroid_codes(n: int) -> list[int]:
    """Family codes of every basis family on n elements, ascending."""
    out = []
    for code in range(1, 1 << (1 << n)):
        fam = decode(code)
        if len({m.bit_count() for m in fam}) == 1 and is_basis_family(fam):
            out.append(code)
    return out


def delta_codes(n: int) -> list[int]:
    """Family codes of every feasible family on n elements, ascending."""
    return [c for c in range(1, 1 << (1 << n)) if is_delta_family(decode(c))]


def fmax_universe(n: int, codes: list[int]) -> int:
    """Cases the fmax check covers: one per delta-matroid whose upper matroid
    is uniform on the whole ground, one per one whose lower matroid is."""
    total = 0
    for code in codes:
        fam = decode(code)
        sizes = [m.bit_count() for m in fam]
        top, bot = max(sizes), min(sizes)
        total += sizes.count(top) == comb(n, top)
        total += sizes.count(bot) == comb(n, bot)
    return total


# -- matroids given by bases ------------------------------------------------


def independents(bases: list[int]) -> set[int]:
    return {s for b in bases for s in submasks(b)}


def is_circuit(c: int, indep: set[int]) -> bool:
    return c not in indep and all(c ^ (1 << x) in indep for x in bits(c))


def circuit_union_inside(c: int, indep: set[int]) -> int:
    """Union of the circuits (of the matroid with these independents) inside c."""
    union = 0
    for s in submasks(c):
        if is_circuit(s, indep):
            union |= s
    return union


def offending_circuit_ok(c: int, upper_bases: list[int], lower_bases: list[int]) -> bool:
    """c is a circuit of the upper matroid and not a union of lower circuits."""
    upper_indep = independents(upper_bases)
    return is_circuit(c, upper_indep) and circuit_union_inside(c, independents(lower_bases)) != c


def is_spanning(s: int, bases: list[int]) -> bool:
    return any(b & ~s == 0 for b in bases)


def replay_blocks_realization(
    first: int, second: int, pivot: int, upper_bases: list[int], lower_bases: list[int]
) -> bool:
    """A realizing delta-matroid holds every basis of both matroids and lies
    inside {independent in upper, spanning in lower}; the replay triple shows
    two forced sets whose exchange at the pivot has no partner there."""
    forced = set(upper_bases) | set(lower_bases)
    if first not in forced or second not in forced or not (first ^ second) >> pivot & 1:
        return False
    upper_indep = independents(upper_bases)
    diff = bits(first ^ second)
    for y in diff:
        cand = first ^ (1 << pivot) ^ ((1 << y) if y != pivot else 0)
        if cand in upper_indep and is_spanning(cand, lower_bases):
            return False
    return True


# -- closed forms -----------------------------------------------------------


def uniform_bases(n: int, k: int) -> list[int]:
    return [m for m in range(1 << n) if m.bit_count() == k]


def sandwich_size_uniform(n: int, k: int, j: int) -> int:
    """|{X : j <= |X| <= k}|, the sandwich of U(k,n) over U(j,n)."""
    return sum(comb(n, s) for s in range(j, k + 1))


def sandwich_size_sum(parts: list[tuple[int, int, int]]) -> int:
    """Sandwich of a direct sum of uniform pairs (n_i, k_i, j_i): the product."""
    return prod(sandwich_size_uniform(n, k, j) for n, k, j in parts)


# -- graphs by union-find -----------------------------------------------------


def components(nv: int, edges: list[tuple[int, int]], mask: int) -> int:
    parent = list(range(nv))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    count = nv
    for i, (u, v) in enumerate(edges):
        if mask >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                count -= 1
    return count


def is_forest(nv: int, edges: list[tuple[int, int]], mask: int) -> bool:
    return components(nv, edges, mask) == nv - mask.bit_count()


def maximal_forests(nv: int, edges: list[tuple[int, int]]) -> list[int]:
    """Bases of the cycle matroid: forests with as many components as the graph."""
    full = (1 << len(edges)) - 1
    rank = nv - components(nv, edges, full)
    return [m for m in range(1 << len(edges)) if m.bit_count() == rank and is_forest(nv, edges, m)]


def graphic_sandwich(nv: int, upper_edges, lower_nv: int, lower_edges) -> list[int]:
    """Edge sets that are forests of the upper graph and span the lower one."""
    full = (1 << len(upper_edges)) - 1
    lower_comps = components(lower_nv, lower_edges, full)
    return [
        m
        for m in range(full + 1)
        if is_forest(nv, upper_edges, m) and components(lower_nv, lower_edges, m) == lower_comps
    ]
