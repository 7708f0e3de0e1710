"""Ground sets, bitmask subsets, and families of subsets.

Everything downstream (matroids, delta-matroids, graphs, searches) is built
on these three values.  A ground set is an ordered list of at most 16 labels,
so every subset fits in one machine word and exhaustive sweeps stay cheap.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"label {label!r} not in ground set {self.labels!r}") from None

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def validate_mask(self, mask: int) -> int:
        if mask < 0 or mask & ~self.full_mask:
            raise InputError(f"mask {mask:#b} has bits outside ground set of size {self.size}")
        return mask

    def subset(self, labels: Iterable[str] = ()) -> "Subset":
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return Subset(self, mask)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.validate_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def all_masks(self) -> range:
        """All 2^n subset masks, in canonical (ascending) order."""
        return range(1 << self.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"GroundSet{self.labels!r}"


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

    def __and__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.ground, self.mask & other.mask)

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
    def from_subsets(cls, ground: GroundSet, subsets: Iterable[Subset]) -> "SetFamily":
        masks = []
        for s in subsets:
            if s.ground != ground:
                raise InputError("family member over a different ground set")
            masks.append(s.mask)
        return cls(ground, tuple(masks))

    @classmethod
    def from_labels(cls, ground: GroundSet, members: Iterable[Iterable[str]]) -> "SetFamily":
        return cls.from_subsets(ground, [ground.subset(m) for m in members])

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
        return [list(self.ground.labels_of(m)) for m in self.masks]

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(s) for s in self.members) + "}"


def _project(mask: int, keep: Sequence[int]) -> int:
    """mask restricted to the element indices in keep, renumbered 0, 1, ... in that order."""
    return sum(1 << i for i, b in enumerate(keep) if mask >> b & 1)


def _minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    pool = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in pool:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def minimal_members(fam: SetFamily) -> SetFamily:
    """Members of fam that strictly contain no other member."""
    return SetFamily(fam.ground, _minimal_masks(fam.masks))


def maximal_members(fam: SetFamily) -> SetFamily:
    """Members of fam strictly contained in no other member: the complements
    of the minimal members of the complements."""
    full = fam.ground.full_mask
    return SetFamily(fam.ground, tuple(full ^ m for m in _minimal_masks(full ^ m for m in fam.masks)))
