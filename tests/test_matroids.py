import os
import random
import subprocess
import sys
from functools import reduce
from itertools import chain, combinations
from math import comb
from operator import or_
from pathlib import Path
from typing import Sequence

import pytest

from deltamatroids import (
    AxiomError,
    ExchangeViolation,
    GroundSet,
    InputError,
    Matroid,
    SetFamily,
    Subset,
    default_ground,
    direct_sum,
    is_quotient,
    is_union_of_circuits,
    uniform,
)
from deltamatroids.delta import DeltaMatroid, construct_sandwich
from deltamatroids.core import (
    _coordinates,
    _decode_family,
    _exchange_failures,
    _exchange_ok,
    _exchange_witness,
    _indicator,
    _minor_code,
    _sizes,
)
from deltamatroids.rigidity import CORPUS, Multigraph, cone, cycle_matroid, rigidity_feasible_family, rigidity_matroid
from deltamatroids.search import enumerate_matroids, matroid_codes


def _project(mask: int, keep: Sequence[int]) -> int:
    """mask restricted to the element indices in keep, renumbered 0, 1, ... in that order."""
    return sum(1 << i for i, b in enumerate(keep) if mask >> b & 1)


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def naive_is_matroid(bases):
    """Independently coded basis-exchange filter over frozensets of labels."""
    if not bases:
        return False
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in bases for y in b2 - b1):
                    return False
    return True


class TestBasisAxiom:
    def test_u12_certifies(self):
        g = default_ground(2)
        m = Matroid.certify(SetFamily.from_labels(g, [["a"], ["b"]]))
        assert isinstance(m, Matroid)
        assert m.rank == 1

    def test_violation_witness_is_canonical(self):
        g = default_ground(3)
        with pytest.raises(AxiomError) as e:
            Matroid.certify(SetFamily.from_labels(g, [["a"], ["b", "c"]]))
        v = e.value.violation
        assert isinstance(v, ExchangeViolation)
        assert v.first == g.subset("bc")
        assert v.second == g.subset("a")
        assert v.pivot == "b"
        assert v.axiom == "MB"

    def test_witness_replays(self):
        # at (first, second, pivot) no exchange partner exists in the family
        g = default_ground(3)
        fam = SetFamily.from_labels(g, [["a"], ["b", "c"]])
        with pytest.raises(AxiomError) as e:
            Matroid.certify(fam)
        v = e.value.violation
        partners = v.second - v.first
        pivot = g.subset(v.pivot)
        assert all((v.first ^ pivot ^ y) not in fam for y in (g.subset(lab) for lab in partners))

    def test_u23_bases_certify(self):
        g = GroundSet.of("1", "2", "3")
        m = Matroid.certify(SetFamily.from_labels(g, [["1", "2"], ["1", "3"], ["2", "3"]]))
        assert isinstance(m, Matroid)

    def test_empty_family_is_input_error(self):
        with pytest.raises(InputError):
            Matroid.certify(SetFamily(default_ground(2), ()))

    def test_loops_and_coloops_allowed(self):
        # bases need not cover the ground set
        g = default_ground(3)
        m = Matroid.certify(SetFamily.from_labels(g, [["a"]]))
        assert m.rank == 1
        assert g.subset("b") in m.circuits()

    def test_unequal_sizes_past_mb_is_an_engine_error(self, monkeypatch):
        # (MB) implies equicardinality; if the kernel ever let unequal sizes
        # through, certify must refuse instead of building the matroid
        monkeypatch.setattr("deltamatroids.core._exchange_failures", lambda *args: iter(()))
        g = default_ground(3)
        with pytest.raises(RuntimeError):
            Matroid.certify(SetFamily.from_labels(g, [["a"], ["b", "c"]]))

    def test_u7_14_certifies(self):
        m = uniform(7, default_ground(14))
        assert Matroid.certify(m.bases) == m


class TestUniform:
    def test_rank_zero(self):
        m = uniform(0, default_ground(3))
        assert m.bases.masks == (0,)

    def test_u56_has_six_bases(self):
        assert len(uniform(5, default_ground(6)).bases) == 6

    def test_u23_has_three_bases(self):
        g = GroundSet.of("1", "2", "3")
        assert len(uniform(2, g).bases) == 3

    def test_out_of_range(self):
        with pytest.raises(InputError):
            uniform(4, default_ground(3))


class TestDirectSum:
    @pytest.fixture
    def u23_pair(self):
        g1 = GroundSet.of("1", "2", "3")
        g2 = GroundSet.of("a", "b", "c")
        return uniform(2, g1), uniform(2, g2)

    def test_nine_bases_of_size_four(self, u23_pair):
        m = direct_sum(*u23_pair)
        assert len(m.bases) == 9
        assert m.rank == 4

    def test_sum_with_rank_zero(self):
        m = uniform(1, default_ground(2))
        z = uniform(0, GroundSet.of("z"))
        s = direct_sum(m, z)
        assert s.ground.labels == ("a", "b", "z")
        assert [set(b.labels) for b in s.bases] == [{"a"}, {"b"}]

    def test_circuits_are_the_two_blocks(self, u23_pair):
        # oracle: minimal non-independent sets, computed from scratch
        m = direct_sum(*u23_pair)
        indep = {frozenset(s.labels) for s in m.independents()}
        dep = [set(c) for c in powerset(m.ground.labels) if frozenset(c) not in indep]
        minimal = [d for d in dep if not any(o < d for o in dep)]
        assert sorted(map(sorted, minimal)) == [["1", "2", "3"], ["a", "b", "c"]]
        assert {frozenset(c.labels) for c in m.circuits()} == {
            frozenset("123"),
            frozenset("abc"),
        }

    def test_overlapping_grounds_rejected(self):
        m = uniform(1, default_ground(2))
        with pytest.raises(InputError):
            direct_sum(m, m)

    def test_over_cap_sum_is_rejected_before_its_code_is_built(self, monkeypatch):
        # 9 + 8 elements: the ground's cap check comes before the 2^17-bit code
        def no_decode(code):
            raise AssertionError("direct_sum decoded a basis code")

        m1 = uniform(1, GroundSet(tuple(f"x{i}" for i in range(9))))
        m2 = uniform(1, GroundSet(tuple(f"y{i}" for i in range(8))))
        monkeypatch.setattr("deltamatroids.matroids._decode_family", no_decode)
        with pytest.raises(InputError, match="the cap is 16"):
            direct_sum(m1, m2)


class TestDerivedFamilies:
    def test_queries_refuse_a_subset_over_another_ground(self):
        m = uniform(1, default_ground(2))
        other = GroundSet.of("x", "y").subset("x")
        for query in (m.is_independent, m.is_spanning, lambda s: is_union_of_circuits(s, m)):
            with pytest.raises(InputError) as err:
                query(other)
            assert str(err.value) == "subset over a different ground set"

    def test_direct_construction_is_refused(self):
        with pytest.raises(TypeError) as err:
            Matroid(default_ground(1), 0b10)
        assert str(err.value) == "use Matroid.certify to build matroids"

    def test_independents_of_u12(self):
        m = uniform(1, default_ground(2))
        assert {frozenset(s.labels) for s in m.independents()} == {
            frozenset(),
            frozenset("a"),
            frozenset("b"),
        }

    def test_independents_count_u23(self):
        assert len(uniform(2, default_ground(3)).independents()) == 7

    def test_bases_are_independent(self):
        for m in enumerate_matroids(3):
            for b in m.bases:
                assert m.is_independent(b)

    def test_spanning_of_rank_zero_is_everything(self):
        m = uniform(0, default_ground(3))
        assert len(m.spanning_sets()) == 8

    def test_spanning_count_u23(self):
        assert len(uniform(2, default_ground(3)).spanning_sets()) == 4

    def test_full_set_always_spans(self):
        for m in enumerate_matroids(3):
            assert m.is_spanning(Subset(m.ground, m.ground.full_mask))

    def test_circuits_u23(self):
        m = uniform(2, default_ground(3))
        assert m.circuits() == SetFamily.from_labels(m.ground, [["a", "b", "c"]])

    def test_free_matroid_has_no_circuits(self):
        m = uniform(3, default_ground(3))
        assert len(m.circuits()) == 0

    def test_circuits_u56(self):
        m = uniform(5, default_ground(6))
        assert m.circuits().masks == (m.ground.full_mask,)

    def test_independents_match_naive_subset_filter(self):
        # oracle equivalence against a separately coded "subset of a basis" filter
        for m in enumerate_matroids(3):
            bases = [set(b.labels) for b in m.bases]
            naive = {
                frozenset(c)
                for c in powerset(m.ground.labels)
                if any(set(c) <= b for b in bases)
            }
            assert {frozenset(s.labels) for s in m.independents()} == naive


class TestDualsAndMinors:
    def test_dual_is_involution(self):
        for m in enumerate_matroids(3):
            assert m.dual().dual() == m

    def test_dual_complements_bases(self):
        for m in enumerate_matroids(3):
            full = m.ground.full_mask
            assert set(m.dual().bases.masks) == {full ^ b for b in m.bases.masks}

    def test_dual_of_uniform(self):
        g = default_ground(6)
        assert uniform(5, g).dual() == uniform(1, g)
        g4 = default_ground(4)
        assert uniform(3, g4).dual() == uniform(1, g4)

    def test_delete_contract_empty_is_identity(self):
        for m in enumerate_matroids(3):
            empty = Subset(m.ground, 0)
            assert m.delete(empty) == m
            assert m.contract(empty) == m

    def test_delete_matches_naive_definition(self):
        # maximal independent sets avoiding X, for every X and matroid up to n = 4
        for m in (m for n in range(5) for m in enumerate_matroids(n)):
            for x in m.ground.all_masks():
                xs = Subset(m.ground, x)
                d = m.delete(xs)
                survivors = [
                    set(s.labels) for s in m.independents() if not set(s.labels) & set(xs.labels)
                ]
                maximal = [s for s in survivors if not any(s < o for o in survivors)]
                assert sorted(map(sorted, maximal)) == sorted(
                    sorted(b.labels) for b in d.bases
                )

    def test_contract_is_dual_of_delete_on_dual(self):
        for m in enumerate_matroids(3):
            for x in range(1 << 3):
                xs = Subset(m.ground, x)
                assert m.contract(xs) == m.dual().delete(xs).dual()

    def test_subset_over_other_ground_rejected(self):
        m = uniform(1, default_ground(2))
        with pytest.raises(InputError):
            m.delete(GroundSet.of("x").subset("x"))

    def test_minor_set_over_other_ground_names_its_operation(self):
        m = uniform(1, default_ground(2))
        other = GroundSet.of("x").subset("x")
        for obj in (m, DeltaMatroid.certify(m.bases)):
            for op, word in ((obj.delete, "deletion"), (obj.contract, "contraction")):
                with pytest.raises(InputError, match=f"^{word} set over a different ground set$"):
                    op(other)

    def test_minors_match_their_references(self):
        # deletion against the largest B - X, contraction against the dual of
        # the dual's deletion: every matroid and X up to n = 4, then the
        # rigidity matroid of each corpus cone and of K5's cone by its cone edges
        cases = [(m, x) for n in range(5) for m in enumerate_matroids(n) for x in m.ground.all_masks()]
        k5 = Multigraph.build("abcde", [(u + v, u, v) for u, v in combinations("abcde", 2)])
        for g in (*CORPUS.values(), k5):
            result = cone(g)
            cases.append((rigidity_matroid(result.cone_graph), result.cone_edges.mask))
        for m, x in cases:
            xs = Subset(m.ground, x)
            keep = [i for i in range(m.ground.size) if not x >> i & 1]
            rest = [b & ~x for b in m.bases.masks]
            top = max(r.bit_count() for r in rest)
            deleted = m.delete(xs)
            assert deleted.ground.labels == tuple(m.ground.labels[i] for i in keep), (m, x)
            assert set(deleted.bases.masks) == {_project(r, keep) for r in rest if r.bit_count() == top}, (m, x)
            assert m.contract(xs) == m.dual().delete(xs).dual(), (m, x)
        assert len(cases) == 1 + 2 * 2 + 5 * 4 + 16 * 8 + 68 * 16 + len(CORPUS) + 1

    def test_minors_of_a_trusted_cone_matroid_decode_no_bases(self):
        k5 = Multigraph.build("abcde", [(u + v, u, v) for u, v in combinations("abcde", 2)])
        result = cone(k5)
        m = Matroid._trusted(result.cone_graph.ground, rigidity_matroid(result.cone_graph)._bases)
        minors = (m.delete(result.cone_edges), m.contract(result.cone_edges))
        assert "bases" not in vars(m)
        assert all("bases" not in vars(minor) for minor in minors)
        assert minors[0] == rigidity_matroid(k5) and minors[1] == cycle_matroid(k5)


def reference_drop(code, n, i, part):
    """part(a, b) of one element's drop on masks: a the members without i,
    b those with it, less it, each projected onto the other elements."""
    keep = [j for j in range(n) if j != i]
    masks = _decode_family(code)
    a = _indicator((_project(f, keep) for f in masks if not f >> i & 1), n - 1)
    b = _indicator((_project(f, keep) for f in masks if f >> i & 1), n - 1)
    return part(a, b)


class TestMinorCode:
    """The coordinate drop on family codes against the mask reference."""

    PARTS = {
        "a": lambda a, b: a,
        "b": lambda a, b: b,
        "a|b": or_,
        "a or b": lambda a, b: a or b,
        "b or a": lambda a, b: b or a,
    }

    def seeded_codes(self):
        rng = random.Random(30)
        for n in range(1, 11):
            for _ in range(3):
                yield n, rng.getrandbits(1 << n)  # dense: about half of all subsets
                yield n, _indicator(rng.sample(range(1 << n), min(n, 1 << n)), n)  # sparse

    def test_one_element_drop_at_every_position(self):
        checked = 0
        for n, code in self.seeded_codes():
            g = default_ground(n)
            for i in range(n):
                for name, part in self.PARTS.items():
                    ground, got = _minor_code(code, g, 1 << i, part)
                    assert ground.labels == g.labels[:i] + g.labels[i + 1 :], (n, i)
                    assert got == reference_drop(code, n, i, part), (n, code, i, name)
                    checked += 1
        assert checked == 5 * 6 * sum(range(1, 11))

    def test_many_element_drop_is_the_drops_highest_first(self):
        rng = random.Random(31)
        for n, code in self.seeded_codes():
            g = default_ground(n)
            for x in (g.full_mask, rng.randrange(1 << n), rng.randrange(1 << n)):
                keep = [i for i in range(n) if not x >> i & 1]
                for name, part in self.PARTS.items():
                    want, m = code, n
                    for i in reversed(range(n)):
                        if x >> i & 1:
                            want, m = reference_drop(want, m, i, part), m - 1
                    ground, got = _minor_code(code, g, x, part)
                    assert ground.labels == tuple(g.labels[i] for i in keep), (n, x)
                    assert got == want, (n, code, x, name)
                # keeping both halves projects every member
                projected = {_project(f, keep) for f in _decode_family(code)}
                assert _minor_code(code, g, x, or_)[1] == _indicator(projected, len(keep)), (n, code, x)


class TestBasisCode:
    """A matroid is stored as its bases' indicator and decodes it on demand."""

    def test_code_built_matroids_agree_with_certified_ones(self):
        for n in range(5):
            g = default_ground(n)
            for code in matroid_codes(n):
                built, certified = Matroid._trusted(g, code), Matroid.certify(SetFamily(g, _decode_family(code)))
                assert built == certified and hash(built) == hash(certified), code
                assert built.rank == certified.rank and built.bases.masks == certified.bases.masks, code

    def test_uniform_has_every_k_subset(self):
        for n in (0, 1, 4, 11, 16):
            for k in range(n + 1):
                masks = uniform(k, default_ground(n)).bases.masks
                assert len(masks) == comb(n, k) and {b.bit_count() for b in masks} == {k}, (n, k)

    def test_is_uniform_counts_bases(self):
        ms = [m for n in range(5) for m in enumerate_matroids(n)]
        assert [m.is_uniform() for m in ms] == [len(m.bases) == comb(m.ground.size, m.rank) for m in ms]
        assert 0 < sum(m.is_uniform() for m in ms) < len(ms)

    def test_sizes_match_a_popcount_table(self):
        for n in range(13):
            want = [0] * (n + 1)
            for mask in range(1 << n):
                want[mask.bit_count()] |= 1 << mask
            assert _sizes(n) == tuple(want), n

    def test_direct_sum_bases_are_the_unions(self):
        # every pair of matroids on at most 2 elements, the second relabelled apart
        ms = [m for n in range(3) for m in enumerate_matroids(n)]
        for m1 in ms:
            for m in ms:
                m2 = Matroid.certify(SetFamily(GroundSet(tuple(map(str.upper, m.ground.labels))), m.bases.masks))
                want = {b1 | b2 << m1.ground.size for b1 in m1.bases.masks for b2 in m2.bases.masks}
                assert set(direct_sum(m1, m2).bases.masks) == want, (m1, m2)


class TestCircuitUnionAndQuotients:
    def test_empty_set_is_vacuous_union(self):
        m = uniform(2, default_ground(3))
        assert is_union_of_circuits(Subset(m.ground, 0), m)

    def test_full_set_in_direct_sum(self):
        m = direct_sum(uniform(2, GroundSet.of("1", "2", "3")), uniform(2, GroundSet.of("a", "b", "c")))
        assert is_union_of_circuits(Subset(m.ground, m.ground.full_mask), m)

    def test_two_set_with_no_circuit_inside(self):
        m = uniform(2, default_ground(3))
        assert not is_union_of_circuits(m.ground.subset("ab"), m)

    @staticmethod
    def check_unions(m):
        """is_union_of_circuits on every subset against its definition; returns the case count."""
        circuits = minimal_dependents(m)
        for x in m.ground.all_masks():
            union = 0
            for c in circuits:
                if c & ~x == 0:
                    union |= c
            assert is_union_of_circuits(Subset(m.ground, x), m) == (union == x), (m, x)
        return 1 << m.ground.size

    def test_union_of_circuits_matches_definition_up_to_n4(self):
        assert sum(self.check_unions(m) for n in range(5) for m in enumerate_matroids(n)) == 1241

    def test_union_of_circuits_matches_definition_on_seeded_matroids(self):
        for m in seeded_matroids():
            self.check_unions(m)

    def test_every_matroid_is_quotient_of_itself(self):
        for m in enumerate_matroids(3):
            assert is_quotient(m, m)

    def test_direct_sum_is_quotient_of_u56(self):
        g1 = GroundSet.of("1", "2", "3")
        g2 = GroundSet.of("a", "b", "c")
        low = direct_sum(uniform(2, g1), uniform(2, g2))
        up = uniform(5, low.ground)
        assert is_quotient(low, up)
        assert not is_quotient(up, low)

    def test_quotient_requires_common_ground(self):
        with pytest.raises(InputError):
            is_quotient(uniform(1, default_ground(2)), uniform(1, default_ground(3)))


class TestExhaustiveInvariants:
    """Small-n sweeps; the n=4 versions run in the acceptance suite."""

    def test_enumeration_matches_naive_oracle(self):
        for n in range(4):
            g = default_ground(n)
            naive = 0
            for code in range(1, 1 << (1 << n)):
                members = [
                    frozenset(g.labels_of(mask)) for mask in g.all_masks() if code >> mask & 1
                ]
                if naive_is_matroid(set(members)):
                    naive += 1
            assert naive == sum(1 for _ in enumerate_matroids(n))

    def test_equicardinality(self):
        for n in range(4):
            for m in enumerate_matroids(n):
                assert {len(b) for b in m.bases} == {m.rank}

    def test_independent_iff_contains_no_circuit(self):
        for n in range(4):
            for m in enumerate_matroids(n):
                circuits = m.circuits().masks
                for mask in m.ground.all_masks():
                    has_circuit = any(c & ~mask == 0 for c in circuits)
                    assert m.is_independent(Subset(m.ground, mask)) == (not has_circuit)

    def test_reconstructed_matroids_recertify(self):
        for m in enumerate_matroids(3):
            assert isinstance(Matroid.certify(m.bases), Matroid)


def submasks(mask):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def reference_independents(m):
    """Subsets of some basis, from the bases alone."""
    return {s for b in m.bases.masks for s in submasks(b)}


def minimal_dependents(m):
    """Circuits by their definition: the minimal members of the dependent sets."""
    indep = reference_independents(m)
    dependents = [d for d in m.ground.all_masks() if d not in indep]
    return tuple(d for d in dependents if not any(k != d and k & ~d == 0 for k in dependents))


def reference_structure(m):
    """(independents, spanning sets, circuits, unions of circuits) as
    ascending masks, from the bases alone.  Spanning sets are supersets of a
    basis; circuits are dependent sets whose one-element-smaller subsets are
    independent; a union of circuits is a set that no removed element lowers
    in rank, with the rank of a dependent set the largest rank of it less
    one element."""
    n, full = m.ground.size, m.ground.full_mask
    indep = reference_independents(m)
    spanning = {b | s for b in m.bases.masks for s in submasks(full & ~b)}
    rank = []
    for x in range(1 << n):
        elements = [1 << i for i in range(n) if x >> i & 1]
        rank.append(x.bit_count() if x in indep else max(rank[x ^ e] for e in elements))
    circuits = [
        d for d in range(1 << n) if d not in indep and all(d & ~(1 << i) in indep for i in range(n) if d >> i & 1)
    ]
    unions = [x for x in range(1 << n) if all(rank[x ^ 1 << i] == rank[x] for i in range(n) if x >> i & 1)]
    return tuple(sorted(indep)), tuple(sorted(spanning)), tuple(circuits), tuple(unions)


def seeded_matroids():
    """Uniform, direct-sum and graphic matroids on 8-11 elements."""
    rng = random.Random(5)
    mats = [uniform(rng.randint(1, n - 1), default_ground(n)) for n in (8, 9, 10, 11)]
    for n1, n2 in ((3, 5), (4, 5), (5, 5), (5, 6)):
        g1 = GroundSet(tuple(f"x{i}" for i in range(n1)))
        g2 = GroundSet(tuple(f"y{i}" for i in range(n2)))
        mats.append(direct_sum(uniform(rng.randint(0, n1), g1), uniform(rng.randint(0, n2), g2)))
    for vertices, edges in ((5, 8), (6, 9), (6, 10), (7, 11)):
        mats.append(cycle_matroid(random_graph(rng, vertices, edges)))
    return mats


class TestCircuits:
    def test_equal_minimal_dependents_up_to_n4(self):
        for n in range(5):
            for m in enumerate_matroids(n):
                assert m.circuits().masks == minimal_dependents(m), m

    def test_equal_minimal_dependents_on_seeded_matroids(self):
        for m in seeded_matroids():
            assert m.circuits().masks == minimal_dependents(m), m


class TestIndicators:
    """The derived indicators against brute force from the bases alone."""

    def check(self, m):
        indep, spanning, circuits, unions = reference_structure(m)
        assert m.independents().masks == indep, m
        assert m.spanning_sets().masks == spanning, m
        assert m.circuits().masks == circuits, m
        assert _decode_family(m._unions) == unions, m

    def test_every_matroid_up_to_n4(self):
        for n in range(5):
            for m in enumerate_matroids(n):
                self.check(m)

    def test_seeded_matroids(self):
        for m in seeded_matroids():
            self.check(m)

    def test_u8_16(self):
        self.check(uniform(8, default_ground(16)))

    def test_corpus_graphs_and_cones(self):
        # the rigidity and cycle matroids of each corpus graph (2-6 edges) and
        # of its cone (5-11 edges)
        checked = 0
        for g in CORPUS.values():
            for h in (g, cone(g).cone_graph):
                assert len(h.edges) <= 11
                for m in (rigidity_matroid(h), cycle_matroid(h)):
                    self.check(m)
                    checked += 1
        assert checked == 4 * len(CORPUS)

    @pytest.mark.parametrize(
        "loops, k, middle, coloops", [(9, 0, 0, 0), (0, 0, 0, 12), (1, 3, 6, 2), (2, 2, 6, 2), (3, 2, 5, 3), (2, 4, 8, 2)]
    )
    def test_loops_and_coloops(self, loops, k, middle, coloops):
        # a direct sum whose rank-0 part gives loops and whose full-rank part coloops
        def part(prefix, rank, size):
            return uniform(rank, GroundSet(tuple(f"{prefix}{i}" for i in range(size))))

        m = direct_sum(direct_sum(part("l", 0, loops), part("m", k, middle)), part("c", coloops, coloops))
        assert 9 <= m.ground.size <= 12
        self.check(m)


def exchange_violation(source, members, axiom):
    """The canonical pair scan: first failure (first, second, pivot bit) with
    `second` outer and `first` inner over source, pivots ascending, partners
    tested against members.  (MB) by its definition: pivot in first - second,
    partner in second - first; (DF): both in first Δ second, partner possibly
    the pivot."""
    for f2 in source:
        for f1 in source:
            if axiom == "MB":
                pivots, partners = f1 & ~f2, f2 & ~f1
            else:
                pivots = partners = f1 ^ f2
            x = pivots
            while x:
                xb = x & -x
                x ^= xb
                y = partners
                while y and f1 ^ (xb | (y & -y)) not in members:
                    y &= y - 1
                if not y:
                    return f1, f2, xb
    return None


def exchange_failures(source, members, axiom):
    """Every failing (first, pivot bit, second), by the pair scan's definition."""
    out = set()
    for f2 in source:
        for f1 in source:
            pivots, partners = (f1 & ~f2, f2 & ~f1) if axiom == "MB" else (f1 ^ f2, f1 ^ f2)
            for x in range(16):
                xb = 1 << x
                if pivots & xb and not any(
                    partners >> y & 1 and f1 ^ (xb | 1 << y) in members for y in range(16)
                ):
                    out.add((f1, xb, f2))
    return out


def expand(failures):
    """Every failing (first, pivot bit, second) in (first, pivot bit, failing) triples."""
    return {(f1, xb, f2) for f1, xb, failing in failures for f2 in _decode_family(failing)}


def code_of(masks):
    """The family code of a collection of masks: bit m set iff m is among them."""
    return sum(1 << m for m in set(masks))


def kernel_failures(source, members, axiom):
    """Every failing (first, pivot bit, second) the kernel yields on the codes of source and members."""
    return expand(_exchange_failures(code_of(source), code_of(members), axiom))


def per_partner_failures(source, members, axiom):
    """The kernel as it was before neighbour sets: per (F1, x), one
    membership test and one AND per partner y."""
    union = 0
    for m in source:
        union |= m
    n = union.bit_length()
    indicator = sum(1 << m for m in source)
    has = [indicator & c for c in _coordinates(n)]
    lacks = [indicator ^ h for h in has]
    elements = [(i, 1 << i) for i in range(n) if union >> i & 1]
    df = axiom == "DF"
    for f in source:
        if df:
            pivots = partners = elements
        else:
            pivots = [e for e in elements if f & e[1]]
            partners = [e for e in elements if not f & e[1]]
        for x, xb in pivots:
            if df and f ^ xb in members:
                continue
            acc = lacks[x] if f & xb else has[x]
            for y, yb in partners:
                if y != x and f ^ xb ^ yb in members:
                    acc &= has[y] if f & yb else lacks[y]
                    if not acc:
                        break
            if acc:
                yield f, xb, acc


class CountingSet(set):
    """A set that counts its membership tests."""

    tests = 0

    def __contains__(self, m):
        self.tests += 1
        return super().__contains__(m)


def reference_mb_violation(masks):
    """The basis-exchange double loop as written before the scans were folded
    into one: partner basis outer, first basis inner, pivots ascending."""
    fam = set(masks)
    for b2 in masks:
        for b1 in masks:
            x = b1 & ~b2
            while x:
                xb = x & -x
                x ^= xb
                y = b2 & ~b1
                ok = False
                while y:
                    yb = y & -y
                    y ^= yb
                    if b1 ^ xb ^ yb in fam:
                        ok = True
                        break
                if not ok:
                    return b1, b2, xb
    return None


def random_graph(rng, vertices, edges):
    vs = [f"v{i}" for i in range(vertices)]
    ends = [rng.sample(range(vertices), 2) for _ in range(edges)]
    return Multigraph.build(vs, [(f"e{k}", vs[u], vs[v]) for k, (u, v) in enumerate(ends)])


def seeded_families(seed=7):
    """(MB) and (DF) families on 6-12 elements: uniform and graphic bases,
    sandwiches of uniform pairs, the (MB) shapes of the pair-construct
    benchmark and the rigidity feasible families of K4 and the wheel on five
    vertices, each as is, with one member dropped, and with one non-member
    added."""
    rng = random.Random(seed)
    bases, feasibles = [], []
    for n, k in ((8, 3), (9, 4), (10, 2), (12, 2)):
        bases.append(uniform(k, default_ground(n)).bases.masks)
    for vertices, edges in ((5, 8), (6, 9), (6, 10), (7, 11)):
        bases.append(cycle_matroid(random_graph(rng, vertices, edges)).bases.masks)
    for n, k, j in ((8, 3, 1), (8, 4, 3), (9, 5, 4), (10, 2, 1)):
        g = default_ground(n)
        feasibles.append(construct_sandwich(uniform(k, g), uniform(j, g)).masks)
    out = []

    def variants(axiom, masks):
        n = max(masks).bit_length()
        outside = [m for m in range(1 << n) if m not in set(masks)]
        drop, add = rng.choice(masks), rng.choice(outside)
        return [(axiom, masks), (axiom, tuple(m for m in masks if m != drop)), (axiom, tuple(sorted(masks + (add,))))]

    for axiom, fams in (("MB", bases), ("DF", bases + feasibles)):
        for masks in fams:
            out += variants(axiom, masks)
    # U(4,11), U(3,5)⊕U(3,6) and U(2,4)⊕U(3,5), relabelled: their (r-1)-sets
    # lie in few bases, and a dropped basis or an added set leaves some in one
    for parts in (((4, 11),), ((3, 5), (3, 6)), ((2, 4), (3, 5))):
        grounds = [GroundSet(tuple(f"{'pq'[i]}{j}" for j in range(n))) for i, (_, n) in enumerate(parts)]
        m = reduce(direct_sum, [uniform(k, g) for (k, _), g in zip(parts, grounds)])
        perm = rng.sample(range(m.ground.size), m.ground.size)
        masks = tuple(sorted(sum(1 << perm[i] for i in range(m.ground.size) if b >> i & 1) for b in m.bases.masks))
        out += variants("MB", masks)
    wheel = Multigraph.build(list("hstuv"), [(u + v, u, v) for u, v in "hs ht hu hv st tu uv vs".split()])
    for graph in (CORPUS["k4"], wheel):
        out += variants("DF", rigidity_feasible_family(graph).masks)
    return out


class TestExchangeKernel:
    def test_verdict_equals_scan_on_every_family_up_to_n4(self):
        for n in range(5):
            for code in range(1, 1 << (1 << n)):
                masks = _decode_family(code)
                for axiom in ("MB", "DF"):
                    scan = exchange_violation(masks, set(masks), axiom)
                    assert _exchange_ok(code, axiom) == (scan is None), (axiom, masks)

    def test_mb_witnesses_equal_reference_up_to_n4(self):
        for n in range(5):
            g = default_ground(n)
            for code in range(1, 1 << (1 << n)):
                masks = _decode_family(code)
                try:
                    got = Matroid.certify(SetFamily(g, masks))
                except AxiomError as e:
                    got = e.violation
                ref = reference_mb_violation(masks)
                if ref is None:
                    assert isinstance(got, Matroid)
                else:
                    b1, b2, xb = ref
                    assert isinstance(got, ExchangeViolation)
                    assert (got.first.mask, got.second.mask) == (b1, b2)
                    assert got.pivot == g.labels[xb.bit_length() - 1]

    def test_verdict_equals_scan_on_seeded_families(self):
        cases = seeded_families()
        failing = 0
        for axiom, masks in cases:
            ref = exchange_violation(masks, set(masks), axiom)
            g = default_ground(max(masks).bit_length())
            try:
                got = (Matroid if axiom == "MB" else DeltaMatroid).certify(SetFamily(g, masks))
            except AxiomError as e:
                got = e.violation
            assert _exchange_ok(code_of(masks), axiom) == (ref is None), (axiom, len(masks))
            if ref is None:
                assert not isinstance(got, ExchangeViolation)
            else:
                f1, f2, xb = ref
                assert (got.first.mask, got.second.mask) == (f1, f2), (axiom, len(masks))
                assert got.pivot == g.labels[xb.bit_length() - 1]
            failing += ref is not None
        assert 0 < failing < len(cases)

    def test_mb_witnesses_equal_reference_on_seeded_families(self):
        # pair-construct's shapes among them: the verdict and the witness of
        # the per-(r-1)-set kernel against the basis-exchange double loop
        verdicts = []
        for axiom, masks in seeded_families():
            if axiom == "MB":
                ref = reference_mb_violation(masks)
                assert _exchange_witness(code_of(masks), code_of(masks), "MB") == ref, len(masks)
                verdicts.append(ref is None)
        assert len(verdicts) == 33 and 0 < sum(verdicts) < 33

    def test_failures_equal_scan_when_source_differs_from_members(self):
        # the unpairable replay's shape: pairs from one family, partners from
        # a larger one; some splits also add sets outside members to source
        rng = random.Random(11)
        failing = 0
        for _ in range(1500):
            n = rng.randint(3, 6)
            members = rng.sample(range(1 << n), rng.randint(1, min(24, 1 << n)))
            source = set(rng.sample(members, rng.randint(1, len(members))))
            if rng.random() < 0.25:
                source |= set(rng.sample(range(1 << n), 2))
            source, members = sorted(source), set(members)
            for axiom in ("MB", "DF"):
                ref = exchange_violation(source, members, axiom)
                assert _exchange_witness(code_of(source), code_of(members), axiom) == ref, (axiom, source, members)
                assert kernel_failures(source, members, axiom) == exchange_failures(source, members, axiom)
                failing += ref is not None
        assert 0 < failing < 3000

    def test_failures_equal_the_per_partner_loop_on_seeded_families(self):
        failing = 0
        for axiom, masks in seeded_families():
            got = kernel_failures(masks, set(masks), axiom)
            assert got == expand(per_partner_failures(masks, set(masks), axiom)), (axiom, len(masks))
            failing += bool(got)
        assert 0 < failing

    @pytest.mark.parametrize(
        "axiom, source, members",
        [
            # F1 = {b, c, d} and {a, d} are no members, so at them the pivot
            # x is no neighbour of g = F1 Δ {x}
            ("DF", (0b0000, 0b1110), {0b0000, 0b0011}),
            ("MB", (0b0110, 0b1001), {0b0110, 0b1100}),
        ],
    )
    def test_failures_equal_the_per_partner_loop_when_first_is_no_member(self, axiom, source, members):
        got = kernel_failures(source, members, axiom)
        assert got == expand(per_partner_failures(source, members, axiom))
        assert any(f1 not in members for f1, _, _ in got)

    @pytest.mark.parametrize(
        "axiom, source, members, fails",
        [
            # members also hold d, or e, which no set of source holds: a
            # partner lies in F1 Δ F2, so those sets are never partners
            ("DF", (0b0000, 0b0111), {0b0000, 0b0111, 0b1001, 0b1010, 0b1100}, True),
            ("DF", (0b000, 0b011, 0b101), {0b000, 0b001, 0b011, 0b101, 0b1000, 0b1011, 0b1101}, False),
            ("MB", (0b0011, 0b1100), {0b0011, 0b1100, 0b10001, 0b10010, 0b10100, 0b11000}, True),
        ],
    )
    def test_failures_equal_the_scans_when_members_reach_past_source(self, axiom, source, members, fails):
        assert any(m & ~reduce(or_, source) for m in members)
        got = kernel_failures(source, members, axiom)
        assert got == expand(per_partner_failures(source, members, axiom))
        assert got == exchange_failures(source, members, axiom)
        assert _exchange_witness(code_of(source), code_of(members), axiom) == exchange_violation(source, members, axiom)
        assert bool(got) == fails

    def test_membership_tests_are_per_neighbour_set(self, monkeypatch):
        # each axiom builds one member set per call and walks its boundary.
        # (DF), the non-members next to a member: on a passing family, one AND
        # chain of at most 11 membership tests per boundary set.  (MB), the
        # sets one short of a member: U(4,11)'s 165 3-sets, each read once for
        # its additions, at most 11 membership tests apiece
        made = []

        class RecordingSet(CountingSet):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        g = default_ground(11)  # GroundSet builds a set in core too: build it before the patch
        bases = uniform(4, g)._bases
        monkeypatch.setattr("deltamatroids.core.set", RecordingSet, raising=False)
        assert _exchange_witness(bases, bases, "MB") is None
        (members,) = made
        assert members == set(_decode_family(bases))
        assert 0 < members.tests <= 11 * comb(11, 3)
        source = construct_sandwich(uniform(4, g), uniform(3, g)).masks
        neighbours = {f ^ 1 << i for f in source for i in range(11)} - set(source)
        made.clear()
        assert _exchange_witness(code_of(source), code_of(source), "DF") is None
        (members,) = made
        assert members == set(source)
        assert 0 < members.tests <= 11 * len(neighbours)

    def test_certify_packs_its_family_once(self, monkeypatch):
        # certify packs the masks into the code the kernel reads and the
        # object stores; the kernel itself packs nothing
        packs = []

        def counting_indicator(masks, n):
            packs.append(n)
            return _indicator(masks, n)

        monkeypatch.setattr("deltamatroids.matroids._indicator", counting_indicator)
        monkeypatch.setattr("deltamatroids.delta._indicator", counting_indicator)
        g = default_ground(5)
        bases, sandwich = uniform(2, g).bases, construct_sandwich(uniform(3, g), uniform(1, g))
        for cls, fam in ((Matroid, bases), (DeltaMatroid, bases), (DeltaMatroid, sandwich)):
            packs.clear()
            got = cls.certify(fam)
            assert packs == [5] and got == cls._trusted(g, code_of(fam.masks)), cls
        packs.clear()
        with pytest.raises(AxiomError):
            Matroid.certify(SetFamily.from_labels(g, [["a"], ["b", "c"]]))
        assert packs == [5]

    def test_certify_decodes_nothing_it_was_handed(self, monkeypatch):
        # certify hands the kernel the family's own masks: each axiom decodes
        # one code, its boundary, (MB) the sets one short of a member and (DF)
        # the non-members next to a member; the witness is the pair scan's
        decodes = []

        def counting_decode(code):
            decodes.append(code)
            return _decode_family(code)

        for module in ("core", "matroids", "delta"):
            monkeypatch.setattr(f"deltamatroids.{module}._decode_family", counting_decode)
        g = default_ground(6)
        bases, sandwich = uniform(3, g).bases, construct_sandwich(uniform(3, g), uniform(1, g))
        cases = [
            (Matroid, "MB", bases.masks),
            (Matroid, "MB", bases.masks[2:]),
            (DeltaMatroid, "DF", sandwich.masks),
            (DeltaMatroid, "DF", sandwich.masks + (g.full_mask,)),
        ]
        passed = []
        for cls, axiom, masks in cases:
            decodes.clear()
            ref = exchange_violation(masks, set(masks), axiom)
            passed.append(ref is None)
            try:
                got = cls.certify(SetFamily(g, masks))
            except AxiomError as e:
                got = e.violation
                assert (got.first.mask, got.second.mask, 1 << g.index(got.pivot)) == ref, axiom
            else:
                assert ref is None and got == cls._trusted(g, code_of(masks)), axiom
            if axiom == "MB":
                boundary = {f ^ 1 << i for f in masks for i in range(6) if f >> i & 1}
            else:
                boundary = {f ^ 1 << i for f in masks for i in range(6)} - set(masks)
            assert [set(_decode_family(c)) for c in decodes] == [boundary], (axiom, len(masks))
        assert passed == [True, False] * 2

    def test_u8_16_at_the_cap(self):
        # (MB) at the 16-element cap.  U(8,16) less its last basis B still
        # passes: B - x + y is the only basis the exchange could miss, and
        # then the partner basis would be B.  Less its last two bases, which
        # share 7 elements, it fails, and the witness replays: no y in
        # second - first gives a basis first - pivot + y
        g = default_ground(16)
        m = uniform(8, g)
        assert Matroid.certify(m.bases) == m
        less_one = SetFamily(g, m.bases.masks[:-1])
        assert Matroid.certify(less_one).bases == less_one
        fam = SetFamily(g, m.bases.masks[:-2])
        with pytest.raises(AxiomError) as e:
            Matroid.certify(fam)
        v = e.value.violation
        assert v.axiom == "MB" and v.first in fam and v.second in fam
        assert v.pivot in v.first - v.second
        rest = v.first - g.subset([v.pivot])
        assert not any(rest | g.subset([y]) in fam for y in v.second - v.first)

    def test_k5_cone_less_a_basis_names_its_witness(self):
        # the witness the quadratic pair scan named for these 3,354 bases
        vs = "abcde"
        k5 = Multigraph.build(list(vs), [(u + v, u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])
        m = rigidity_matroid(cone(k5).cone_graph)
        assert len(m.bases) == 3355
        with pytest.raises(AxiomError) as e:
            Matroid.certify(SetFamily(m.ground, m.bases.masks[:-1]))
        v = e.value.violation
        assert isinstance(v, ExchangeViolation)
        assert v.first.labels == ("ac", "ae", "be", "ce", "de", "x0-a", "x0-b", "x0-d", "x0-e")
        assert v.second.labels == ("ab", "ad", "ae", "bd", "be", "ce", "x0-a", "x0-b", "x0-c")
        assert v.pivot == "ac"

    def test_complements_of_seeded_df_families_keep_the_verdict(self):
        # the complement is the twist by the whole ground set
        seen = 0
        for axiom, masks in seeded_families():
            if axiom == "DF":
                full = (1 << max(masks).bit_length()) - 1
                comp = tuple(sorted(full ^ m for m in masks))
                ok = _exchange_ok(code_of(masks), "DF")
                assert _exchange_ok(code_of(comp), "DF") == ok, len(masks)
                if ok:
                    d = DeltaMatroid.certify(SetFamily(default_ground(full.bit_length()), masks))
                    assert d.complement_dual().feasibles.masks == comp
                    seen += 1
        assert seen > 0

    def test_coordinates_are_not_built_at_import(self):
        snippet = (
            "import deltamatroids\n"
            "from deltamatroids.core import _coordinates\n"
            "print(_coordinates.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "0\n"

    def test_coordinates_match_their_definition(self):
        # bit m of coordinate i is set iff mask m has element i, up to the cap
        for n in (*range(13), 16):
            want = tuple(
                int("".join("1" if m >> i & 1 else "0" for m in reversed(range(1 << n))), 2)
                for i in range(n)
            )
            assert _coordinates(n) == want, n

    def test_unequal_sizes_fail_mb_but_not_df(self):
        code = code_of((0b001, 0b110))
        assert not _exchange_ok(code, "MB")
        assert _exchange_witness(code, code, "MB") is not None
        assert _exchange_ok(code_of((0b00, 0b01, 0b11)), "DF")
