"""Matroids given by their basis families: axiom checking and derived structure.

A `Matroid` given from outside exists only after its basis family passed the
basis exchange axiom, and one the library derives is a matroid by theory, so
downstream code never re-checks.  It is stored as its
bases' family code (`core`: bit m set iff subset mask m is a basis), the code
`certify` packs once and the exchange kernel reads; `bases` decodes it on
first read.  Its independent sets, spanning sets, circuits and unions of
circuits are codes of the same kind, shift-and-mask steps from the bases'
code, and for the circuit unions one up-closure of the circuits through each
element, O(n^2) steps.  A quotient test, and its least offending circuit, is
then one AND of circuits against circuit unions.  The dual complements the
code, and a minor drops X's coordinates from it, one element at a time.
"""

from __future__ import annotations

from functools import cached_property

from .core import GroundSet, InputError, SetFamily, Subset, _certify_exchange, _complement, _coordinates
from .core import _decode_family, _indicator, _minor_code, _sizes, _up_closure


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
        code = _certify_exchange(fam, _indicator(fam.masks, fam.ground.size), "MB")
        m = cls(fam.ground, code, _certified=True)
        m.bases = fam  # fills the cached_property
        # (MB) forces equicardinality; a failure here would be an engine bug.
        if code & ~_sizes(fam.ground.size)[m.rank]:
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
        """The down-closure of the bases, read as the complements of the dual's spanning sets (Oxley, section 2.1)."""
        n = self.ground.size
        return _complement(_up_closure(_complement(self._bases, n), n), n)

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
