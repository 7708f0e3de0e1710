"""Matroids given by their basis families: axiom checking and derived structure.

A `Matroid` value only exists after its basis family passed the basis
exchange axiom, so downstream code never re-checks.  It is stored as its
bases' 2^n-bit indicator (bit m set iff subset mask m is a basis), the code
`certify` packs once and the exchange kernel reads, as it reads every family;
`bases` decodes it on first read.  Its independent sets, spanning sets,
circuits and unions of circuits are indicators of the same kind over
`_coordinates(n)`: shift-and-mask steps from the bases' indicator, and for the
circuit unions one up-closure of the circuits through each element, O(n^2)
steps.  A quotient test, and its least offending circuit, is then one AND of
circuits against circuit unions.  The dual complements the indicator, and a
minor drops X's coordinates from it, one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    GroundSet,
    InputError,
    SetFamily,
    Subset,
)


@dataclass(frozen=True)
class ExchangeViolation:
    """Witness that an exchange axiom fails at a specific triple.

    Replaying the axiom at (first, second, pivot) finds no valid exchange
    partner y: no candidate first Δ {pivot, y} lies in the family.
    """

    first: Subset
    second: Subset
    pivot: str
    axiom: str  # "MB" or "DF"

    def describe(self) -> str:
        return (
            f"axiom ({self.axiom}) fails: no exchange partner for pivot "
            f"{self.pivot!r} with first={self.first!r}, second={self.second!r}"
        )

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "first": list(self.first.labels),
            "second": list(self.second.labels),
            "pivot": self.pivot,
        }


class AxiomError(ValueError):
    """A family failed certification; carries the violating triple."""

    def __init__(self, violation: ExchangeViolation):
        super().__init__(violation.describe())
        self.violation = violation


@lru_cache(maxsize=None)
def _coordinates(n: int) -> tuple[int, ...]:
    """Per element i < n, the 2^n-bit integer whose bit m is set iff mask m has i:
    on k + 1 elements, each coordinate on k elements twice over, and element k
    on the upper half."""
    coords: tuple[int, ...] = ()
    for k in range(n):
        half = 1 << k
        coords = tuple(c | c << half for c in coords) + (((1 << half) - 1) << half,)
    return coords


def _indicator(masks: Iterable[int], n: int) -> int:
    """The 2^n-bit integer whose bit m is set iff m is among masks (all below 2^n)."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _decode_family(code: int) -> tuple[int, ...]:
    """Indicator, or family code (the same thing), -> member masks, ascending.
    Byte by byte: a lowest-set-bit loop on the whole int costs O(2^n) a member."""
    masks = []
    for i, byte in enumerate(code.to_bytes((code.bit_length() + 7) >> 3, "little")):
        while byte:
            low = byte & -byte
            masks.append(i << 3 | low.bit_length() - 1)
            byte ^= low
    return tuple(masks)


@cache
def _sizes(n: int) -> tuple[int, ...]:
    """Per size k = 0..n, the 2^n-bit indicator of the k-element masks: the
    k-sets on n - 1 elements, and the (k - 1)-sets on them with element n - 1 added."""
    if n == 0:
        return (1,)
    prev = _sizes(n - 1)
    return tuple(a | b << (1 << (n - 1)) for a, b in zip((*prev, 0), (0, *prev)))


def _code_layers(code: int, n: int) -> tuple[int, int]:
    """(minimum-size, maximum-size) members of a nonempty family, as codes."""
    present = [layer for s in _sizes(n) if (layer := code & s)]
    return present[0], present[-1]


def _complement(code: int, n: int) -> int:
    """Code of the complement family {E - F : F in family}: mask m goes to 2^n - 1 - m, so the bits reverse."""
    return int(format(code, f"0{1 << n}b")[::-1], 2)


def _up_closure(indicator: int, n: int) -> int:
    """Indicator of every superset of a member of indicator."""
    for i, has in enumerate(_coordinates(n)):
        indicator |= indicator << (1 << i) & has
    return indicator


def _minor_code(code: int, ground: GroundSet, x: int, part: Callable[[int, int], int]) -> tuple[GroundSet, int]:
    """Drop x's elements from a family code, highest first, onto the ground less x: swaps of adjacent
    coordinates carry each to the top coordinate, where the code's low half a holds the members without
    it and its high half b those with it, less it, and part(a, b) is kept."""
    n = ground.size
    coords = _coordinates(n)  # its low 2^k bits are the coordinates on k elements
    for i in reversed(range(n)):
        if x >> i & 1:
            for j in range(i, n - 1):
                t = (code ^ code >> (1 << j)) & coords[j] & ~coords[j + 1]
                code ^= t | t << (1 << j)
            n -= 1
            code = part(code & ((1 << (1 << n)) - 1), code >> (1 << n))
    return GroundSet(ground.labels_of(ground.full_mask ^ x)), code


def _exchange_failures(source: int, members: int, axiom: str) -> Iterator[tuple[int, int, int]]:
    """(F1, x, failing) for each F1 in source, ascending, and pivot bit x where the axiom fails.

    source and members are family codes, decoded once each, or once when they
    are one code; F1 and F2 range over source.  A partner y != x of x needs
    g Δ {y} in members, with g = F1 Δ {x}, so the partners depend on g alone,
    through N(g) = {y : g Δ {y} in members}: the axiom fails at (F1, x, F2)
    exactly when F2 agrees with g on N(g) ∪ {x}.  `failing` is the 2^n-bit
    indicator of those F2, source ANDed with one coordinate per element.
    (MB), x in F1 and y outside it: F2 fails iff it avoids Z = N⁺(g) ∪ {x},
    N⁺(g) the additions that make g a member; that is one byte of source's
    up-closure at union - Z.  (DF), any x, and y = x is a partner, so x fails
    only if g is no member; the AND over N(g) runs once per such g.
    """
    masks = _decode_family(source)
    member_set = set(masks if members == source else _decode_family(members))
    union = reduce(or_, masks, 0)
    n = union.bit_length()
    has = [source & c for c in _coordinates(n)]
    lacks = [source ^ h for h in has]
    elements = [(i, 1 << i) for i in range(n) if union >> i & 1]
    if axiom == "MB":
        additions: dict[int, int] = {}
        for m in member_set:
            rest = m
            while rest:
                yb = rest & -rest
                rest ^= yb
                additions[m ^ yb] = additions.get(m ^ yb, 0) | yb
        covered = _up_closure(source, n).to_bytes(((1 << n) + 7) >> 3, "little")
        for f in masks:
            for _, xb in elements:
                if f & xb:
                    z = additions.get(f ^ xb, 0) | xb
                    free = union & ~z
                    if covered[free >> 3] >> (free & 7) & 1:
                        yield f, xb, reduce(and_, (lacks[y] for y, yb in elements if z & yb), source)
        return
    agree: dict[int, int] = {}  # per non-member g: the source members agreeing with g on N(g)
    for f in masks:
        for x, xb in elements:
            g = f ^ xb
            if g in member_set:
                continue
            acc = agree.get(g)
            if acc is None:
                acc = source
                for y, yb in elements:
                    if g ^ yb in member_set:
                        acc &= has[y] if g & yb else lacks[y]
                        if not acc:
                            break
                agree[g] = acc
            if acc:
                acc &= has[x] if g & xb else lacks[x]
                if acc:
                    yield f, xb, acc


def _exchange_ok(code: int, axiom: str) -> bool:
    """Pass/fail of (MB) or (DF) on a family code; stops at the first failure."""
    return next(_exchange_failures(code, code, axiom), None) is None


def _exchange_witness(source: int, members: int, axiom: str) -> Optional[tuple[int, int, int]]:
    """The canonical failure (first, second, pivot bit) on the codes source and members, or None.

    Canonical is least second, then first, then pivot: over source's members
    ascending, the order of a scan with `second` outer and `first` inner.
    """
    failures = _exchange_failures(source, members, axiom)
    least = min((((acc & -acc).bit_length() - 1, f1, xb) for f1, xb, acc in failures), default=None)
    if least is None:
        return None
    f2, f1, xb = least
    return f1, f2, xb


def _violation(ground: GroundSet, triple: tuple[int, int, int], axiom: str) -> ExchangeViolation:
    """The ExchangeViolation of a (first, second, pivot bit) triple over ground."""
    f1, f2, xb = triple
    return ExchangeViolation(Subset(ground, f1), Subset(ground, f2), ground.labels[xb.bit_length() - 1], axiom)


def _certify_exchange(ground: GroundSet, code: int, axiom: str) -> int:
    """code, once it passes the axiom over ground; raise AxiomError with the canonical witness otherwise."""
    bad = _exchange_witness(code, code, axiom)
    if bad is not None:
        raise AxiomError(_violation(ground, bad, axiom))
    return code


class Matroid:
    """A basis family certified against the basis exchange axiom, stored as its bases' indicator."""

    def __init__(self, ground: GroundSet, code: int, _certified: bool = False):
        if not _certified:
            raise TypeError("use Matroid.certify to build matroids")
        self.ground = ground
        self._bases = code
        self.rank = ((code & -code).bit_length() - 1).bit_count()  # the lowest basis's size

    @classmethod
    def certify(cls, fam: SetFamily) -> "Matroid":
        if len(fam) == 0:
            raise InputError("a matroid needs at least one basis")
        code = _certify_exchange(fam.ground, _indicator(fam.masks, fam.ground.size), "MB")
        m = cls(fam.ground, code, _certified=True)
        m.bases = fam  # fills the cached_property
        # (MB) forces equicardinality; a failure here would be an engine bug.
        if any(b.bit_count() != m.rank for b in fam.masks):
            raise RuntimeError("(MB) passed on a basis family of unequal sizes")
        return m

    @classmethod
    def _trusted(cls, ground: GroundSet, code: int) -> "Matroid":
        """Build from a basis indicator without running (MB); for constructions correct by theory."""
        return cls(ground, code, _certified=True)

    @cached_property
    def bases(self) -> SetFamily:
        return SetFamily(self.ground, _decode_family(self._bases))

    # -- derived structure: 2^n-bit indicators ----------------------------

    @cached_property
    def _indep(self) -> int:
        """The down-closure of the bases."""
        out = self._bases
        for i, has in enumerate(_coordinates(self.ground.size)):
            out |= (out & has) >> (1 << i)
        return out

    @cached_property
    def _spanning(self) -> int:
        """The up-closure of the bases."""
        return _up_closure(self._bases, self.ground.size)

    @cached_property
    def _circuits(self) -> int:
        """The dependent sets with no dependent set one element smaller."""
        n = self.ground.size
        dep = ((1 << (1 << n)) - 1) ^ self._indep
        above_dep = 0
        for i, has in enumerate(_coordinates(n)):
            above_dep |= dep << (1 << i) & has
        return dep & ~above_dep

    @cached_property
    def _unions(self) -> int:
        """The unions of circuits: X is one iff each element of X lies in a circuit inside X."""
        n = self.ground.size
        unions = (1 << (1 << n)) - 1
        for has in _coordinates(n):
            unions &= ~has | _up_closure(self._circuits & has, n)
        return unions

    def independents(self) -> SetFamily:
        """All subsets of some basis."""
        return SetFamily(self.ground, _decode_family(self._indep))

    def spanning_sets(self) -> SetFamily:
        """All supersets of some basis."""
        return SetFamily(self.ground, _decode_family(self._spanning))

    def circuits(self) -> SetFamily:
        """Minimal dependent subsets."""
        return SetFamily(self.ground, _decode_family(self._circuits))

    def is_independent(self, s: Subset) -> bool:
        if s.ground != self.ground:
            raise InputError("subset over a different ground set")
        return self._indep >> s.mask & 1 == 1

    def is_spanning(self, s: Subset) -> bool:
        if s.ground != self.ground:
            raise InputError("subset over a different ground set")
        return self._spanning >> s.mask & 1 == 1

    # -- operations -------------------------------------------------------

    def dual(self) -> "Matroid":
        return Matroid._trusted(self.ground, _complement(self._bases, self.ground.size))

    def delete(self, x_set: Subset) -> "Matroid":
        """Restrict to the complement of x_set: B - x_set over the bases B meeting it least."""
        if x_set.ground != self.ground:
            raise InputError("deletion set over a different ground set")
        return Matroid._trusted(*_minor_code(self._bases, self.ground, x_set.mask, lambda a, b: a or b))

    def contract(self, x_set: Subset) -> "Matroid":
        """Contract x_set: B - x_set over the bases B meeting it most (Oxley, Matroid Theory, section 3.1)."""
        if x_set.ground != self.ground:
            raise InputError("contraction set over a different ground set")
        return Matroid._trusted(*_minor_code(self._bases, self.ground, x_set.mask, lambda a, b: b or a))

    def is_uniform(self) -> bool:
        """True iff the bases are exactly all rank-sized subsets of the ground."""
        return self._bases == _sizes(self.ground.size)[self.rank]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matroid) and self.ground == other.ground and self._bases == other._bases

    def __hash__(self) -> int:
        return hash((self.ground, self._bases))

    def __repr__(self) -> str:
        return f"Matroid(rank={self.rank}, bases={self.bases!r})"


def uniform(k: int, ground: GroundSet) -> Matroid:
    """The uniform matroid whose bases are all k-subsets of the ground set."""
    if not 0 <= k <= ground.size:
        raise InputError(f"uniform rank {k} out of range for ground of size {ground.size}")
    return Matroid._trusted(ground, _sizes(ground.size)[k])


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    """Direct sum on disjoint grounds: bases are unions of one basis from each,
    so the code holds one copy of m1's per basis b2 of m2, shifted to b2's place."""
    if set(m1.ground.labels) & set(m2.ground.labels):
        raise InputError("direct sum requires disjoint ground sets")
    ground = GroundSet(m1.ground.labels + m2.ground.labels)  # over the cap, this raises before the code is built
    return Matroid._trusted(ground, sum(m1._bases << (b2 << m1.ground.size) for b2 in _decode_family(m2._bases)))


def is_union_of_circuits(s: Subset, m: Matroid) -> bool:
    """True iff s equals the union of the circuits of m contained in it.

    The empty set is vacuously a union (of no circuits).
    """
    if s.ground != m.ground:
        raise InputError("subset over a different ground set")
    return m._unions >> s.mask & 1 == 1


def is_quotient(q: Matroid, m: Matroid) -> bool:
    """q is a quotient of m iff every circuit of m is a union of circuits of
    q, equivalently iff every flat of q is a flat of m (Oxley, Matroid
    Theory, section 7.3): one AND of m's circuits against q's circuit unions."""
    if q.ground != m.ground:
        raise InputError("quotient test requires a common ground set")
    return m._circuits & ~q._unions == 0
