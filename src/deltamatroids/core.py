"""Ground sets, bitmask subsets, families of subsets, and their family codes.

Everything downstream (matroids, delta-matroids, graphs, searches) is built
on these three values.  A ground set is an ordered list of at most 16 labels,
so every subset fits in one machine word and exhaustive sweeps stay cheap.
Labels become masks by one label-to-bit dict, a family at a time, and
masks become labels by one table per block of four elements.
A family on n elements is also one 2^n-bit integer, its family code (bit m
set iff mask m is a member), which every matroid and delta-matroid stores.
The code's algebra and the one exchange kernel for (MB) and (DF) live here;
only `Matroid.certify` and `DeltaMatroid.certify` run the kernel as a check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Optional

MAX_GROUND_SIZE = 16


class InputError(ValueError):
    """Raised on malformed input: bad labels, mismatched grounds, bad masks."""


@dataclass(frozen=True)
class GroundSet:
    """Ordered universe of distinct element labels, at most 16 of them."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) > MAX_GROUND_SIZE:
            raise InputError(
                f"ground set has {len(self.labels)} elements; the cap is {MAX_GROUND_SIZE}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise InputError(f"duplicate labels in ground set: {self.labels!r}")

    @classmethod
    def of(cls, *labels: str) -> "GroundSet":
        return cls(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {lab: 1 << i for i, lab in enumerate(self.labels)}

    @cached_property
    def _nibbles(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Per block of four elements (four blocks, padded), the labels of each submask of the block."""
        return tuple(_submasks(self.labels[p : p + 4]) for p in range(0, MAX_GROUND_SIZE, 4))

    def index(self, label: str) -> int:
        try:
            return self._bits[label].bit_length() - 1
        except KeyError:
            raise InputError(f"label {label!r} not in ground set {self.labels!r}") from None

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def validate_mask(self, mask: int) -> int:
        if mask < 0 or mask & ~self.full_mask:
            raise InputError(f"mask {mask:#b} has bits outside ground set of size {self.size}")
        return mask

    def _mask(self, labels: Iterable[str]) -> int:
        """The mask of the named labels; each may be named once."""
        mask = 0
        for lab in labels:
            bit = 1 << self.index(lab)
            if mask & bit:
                raise InputError(f"label {lab!r} named twice in one subset of {self.labels!r}")
            mask |= bit
        return mask

    def _masks(self, members: Iterable[Iterable[str]]) -> list[int]:
        """The masks of the named subsets by one dict read per label (a label named twice
        leaves too few bits); only a failed batch runs `_mask`, to name the first culprit."""
        members = list(members)
        bit = self._bits.__getitem__
        try:
            members = list(map(tuple, members))
            masks = [sum(map(bit, m)) for m in members]
            if list(map(int.bit_count, masks)) == list(map(len, members)):
                return masks
        except (KeyError, TypeError):
            pass
        return [self._mask(m) for m in members]

    def subset(self, labels: Iterable[str] = ()) -> "Subset":
        return Subset(self, self._mask(labels))

    def _labels(self, mask: int) -> tuple[str, ...]:
        """The labels of a mask inside the ground, unchecked."""
        a, b, c, d = self._nibbles
        return a[mask & 15] + b[mask >> 4 & 15] + c[mask >> 8 & 15] + d[mask >> 12]

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return self._labels(self.validate_mask(mask))

    def _label_lists(self, masks: Iterable[int]) -> list[list[str]]:
        """The labels of each mask inside the ground, as lists: a family's JSON form."""
        return list(map(list, map(self._labels, masks)))

    def all_masks(self) -> range:
        """All 2^n subset masks, in canonical (ascending) order."""
        return range(1 << self.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"GroundSet{self.labels!r}"


@lru_cache(maxsize=256)
def _submasks(items: tuple) -> tuple[tuple, ...]:
    """The items of each submask of items, indexed by the submask: one table per
    item tuple, so fresh grounds with equal labels share their label tables."""
    table: list[tuple] = [()]
    for x in items:
        table += [t + (x,) for t in table]
    return tuple(table)


def default_ground(n: int) -> GroundSet:
    """Ground set of size n with the conventional labels a, b, c, ..."""
    if not 0 <= n <= MAX_GROUND_SIZE:
        raise InputError(f"ground size {n} outside 0..{MAX_GROUND_SIZE}")
    return GroundSet(tuple("abcdefghijklmnop"[:n]))


@dataclass(frozen=True)
class Subset:
    """A subset of a ground set, stored as a bit mask over element indices."""

    ground: GroundSet
    mask: int

    def __post_init__(self) -> None:
        self.ground.validate_mask(self.mask)

    def _check_ground(self, other: "Subset") -> None:
        if self.ground != other.ground:
            raise InputError(
                f"mismatched ground sets: {self.ground.labels!r} vs {other.ground.labels!r}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return self.ground.labels_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return self.mask >> self.ground.index(label) & 1 == 1

    def __xor__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.ground, self.mask ^ other.mask)

    def __or__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.ground, self.mask | other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.ground, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.ground, self.ground.full_mask ^ self.mask)

    def __repr__(self) -> str:
        return "{" + ",".join(self.labels) + "}"


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated collection of subsets of one ground set.

    Members are kept sorted ascending by mask value, so iteration order and
    any serialized form are byte-stable.
    """

    ground: GroundSet
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.masks)))
        # sorted, so the ends bound every member; the loop only names the culprit
        if canon and (canon[0] < 0 or canon[-1] > self.ground.full_mask):
            for m in canon:
                self.ground.validate_mask(m)
        object.__setattr__(self, "masks", canon)

    @classmethod
    def from_labels(cls, ground: GroundSet, members: Iterable[Iterable[str]]) -> "SetFamily":
        return cls(ground, tuple(ground._masks(members)))

    @property
    def members(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.ground, m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members)

    def __contains__(self, s: Subset) -> bool:
        i = bisect_left(self.masks, s.mask)  # masks are sorted
        return s.ground == self.ground and i < len(self.masks) and self.masks[i] == s.mask

    def member_labels(self) -> list[list[str]]:
        return self.ground._label_lists(self.masks)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(s) for s in self.members) + "}"


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


@cache
def _coordinates(n: int) -> tuple[int, ...]:
    """Per element i < n, the 2^n-bit integer whose bit m is set iff mask m has i:
    on k + 1 elements, each coordinate on k elements twice over, and element k
    on the upper half."""
    coords: tuple[int, ...] = ()
    for k in range(n):
        half = 1 << k
        coords = tuple(c | c << half for c in coords) + (((1 << half) - 1) << half,)
    return coords


def _fixed(n: int, x: int, s: int) -> int:
    """The 2^n-bit indicator of the masks m with m & x == s: one AND per element of x."""
    ones = (1 << (1 << n)) - 1
    return reduce(and_, (c if s >> i & 1 else ones ^ c for i, c in enumerate(_coordinates(n)) if x >> i & 1), ones)


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


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits in reverse order


def _complement(code: int, n: int) -> int:
    """Code of the complement family {E - F}: mask m goes to 2^n - 1 - m, so the bits reverse (by bytes from n = 3)."""
    if n < 3:
        return int(format(code, f"0{1 << n}b")[::-1], 2)
    return int.from_bytes(code.to_bytes(1 << (n - 3), "little").translate(_REVERSED_BYTES), "big")


def _twists(code: int, n: int) -> set[int]:
    """Codes of the twists F Δ S of a family on n elements, S any subset: the
    twist by element i swaps the code bits of masks with and without i."""
    orbit = {code}
    for i, has in enumerate(_coordinates(n)):
        s = 1 << i
        orbit |= {(c & has) >> s | (c ^ c & has) << s for c in orbit}
    return orbit


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
    # the kept labels read directly: one read does not pay for the ground's label table
    return GroundSet(tuple(lab for i, lab in enumerate(ground.labels) if not x >> i & 1)), code


# -- the exchange kernel, one for (MB) and (DF) ---------------------------


def _shadow(masks: Iterable[int]) -> dict[int, int]:
    """Per set g one element short of a mask in masks, the bits y with g + y among masks."""
    out: dict[int, int] = {}
    for m in masks:
        rest = m
        while rest:
            yb = rest & -rest
            rest ^= yb
            out[m ^ yb] = out.get(m ^ yb, 0) | yb
    return out


def _exchange_failures(source: int, members: int, axiom: str) -> Iterator[tuple[int, int, int]]:
    """(F1, x, failing) for each F1 in source and pivot bit x where the axiom fails.

    source and members are family codes, decoded once each, or once when they
    are one code; F1 and F2 range over source.  A partner y != x of x needs
    g Δ {y} in members, with g = F1 Δ {x}, so the partners depend on g alone,
    through N(g) = {y : g Δ {y} in members}: the axiom fails at (F1, x, F2)
    exactly when F2 agrees with g on N(g) ∪ {x}.  `failing` is the 2^n-bit
    indicator of those F2, source ANDed with one coordinate per element.
    (MB), x in F1 and y outside it, g = F1 - x: F2 fails iff it avoids N⁺(g)
    ∪ {x}, N⁺(g) the additions making g a member.  One byte of source's
    up-closure, at union - N⁺(g), tells per g whether any F2 avoids N⁺(g);
    only then are the coordinates ANDed (x is in N⁺(g) if source is members),
    so failures come grouped by g.  (DF), any x, and y = x is a partner, so x
    fails only if g is no member; the AND over N(g) runs once per such g.
    """
    masks = _decode_family(source)
    union = reduce(or_, masks, 0)
    n = union.bit_length()
    has = [source & c for c in _coordinates(n)]
    lacks = [source ^ h for h in has]
    elements = [(i, 1 << i) for i in range(n) if union >> i & 1]
    if axiom == "MB":
        pivots = _shadow(masks)
        additions = pivots if members == source else _shadow(_decode_family(members))
        covered = _up_closure(source, n).to_bytes(((1 << n) + 7) >> 3, "little")
        for g, xs in pivots.items():
            z = additions.get(g, 0)
            free = union & ~z
            if covered[free >> 3] >> (free & 7) & 1:
                avoid = reduce(and_, (lacks[y] for y, yb in elements if z & yb), source)
                for x, xb in elements:
                    if xs & xb and (failing := avoid & lacks[x]):
                        yield g | xb, xb, failing
        return
    member_set = set(masks if members == source else _decode_family(members))
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
