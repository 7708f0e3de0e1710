import os
import random
import subprocess
import sys
from functools import partial
from itertools import chain, combinations, product
from math import comb
from pathlib import Path

import pytest

from deltamatroids import (
    AxiomError,
    DeltaMatroid,
    ExchangeViolation,
    GroundSet,
    InputError,
    PairabilityReport,
    SetFamily,
    Subset,
    bouchet_triple,
    construct_sandwich,
    default_ground,
    direct_sum,
    enumerate_delta_matroids,
    fmax_lower_uniform,
    fmax_upper_uniform,
    is_pairable,
    is_quotient,
    restrict_by_deletion,
    restrict_to_contained,
    uniform,
)
from deltamatroids.core import _code_layers, _decode_family, _exchange_ok, _indicator, _minor_code
from deltamatroids.matroids import Matroid
from deltamatroids.rigidity import CORPUS, Multigraph, cone, cycle_matroid, rigidity_matroid
from deltamatroids.search import delta_codes, enumerate_matroids


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def naive_satisfies_exchange(feasibles):
    """Independently coded symmetric-exchange filter over frozensets."""
    for f1 in feasibles:
        for f2 in feasibles:
            for x in f1 ^ f2:
                if not any(f1 ^ {x, y} in feasibles for y in f1 ^ f2):
                    return False
    return True


def reference_projection(ground, keep, masks):
    """(labels, masks) of masks restricted to keep's elements, renumbered in ground order."""
    idx = [i for i in range(ground.size) if keep >> i & 1]
    return tuple(ground.labels[i] for i in idx), {sum(1 << j for j, i in enumerate(idx) if f >> i & 1) for f in masks}


def reference_delta_violation(masks):
    """The symmetric-exchange double loop as written before the exchange scans
    were folded into one: partner set outer, first set inner, pivots
    ascending, and the partner y may equal the pivot."""
    fam = set(masks)
    for f2 in masks:
        for f1 in masks:
            diff = f1 ^ f2
            x = diff
            while x:
                xb = x & -x
                x ^= xb
                y = diff
                ok = False
                while y:
                    yb = y & -y
                    y ^= yb
                    if f1 ^ (xb | yb) in fam:
                        ok = True
                        break
                if not ok:
                    return f1, f2, xb
    return None


def random_graph_pair(rng, vertices, edges):
    """A random multigraph and the same edges after merging two of its
    vertices; the second cycle matroid is a quotient of the first."""
    vs = [f"v{i}" for i in range(vertices)]
    ends = [rng.sample(vs, 2) for _ in range(edges)]
    merged = {v: (vs[0] if v == vs[1] else v) for v in vs}
    upper = Multigraph.build(vs, [(f"e{k}", u, v) for k, (u, v) in enumerate(ends)])
    lower = Multigraph.build(vs, [(f"e{k}", merged[u], merged[v]) for k, (u, v) in enumerate(ends)])
    return upper, lower


def reference_circuits(m):
    """Circuits from the bases alone: the dependent sets whose subsets one
    element smaller are all independent."""
    indep = {s for s in m.ground.all_masks() if any(s & ~b == 0 for b in m.bases.masks)}
    return [
        d
        for d in m.ground.all_masks()
        if d not in indep and all(d & ~(1 << i) in indep for i in range(m.ground.size) if d >> i & 1)
    ]


def reference_offending_circuit(upper_circuits, lower_circuits):
    """The least upper circuit that is not the union of the lower circuits inside it, or None."""
    for c in upper_circuits:
        union = 0
        for x in lower_circuits:
            if x & ~c == 0:
                union |= x
        if union != c:
            return c
    return None


def seeded_pairs(seed=11):
    """Matroid pairs on 8-11 elements, each in both orders: uniform pairs,
    direct sums of uniform pairs, and graphic quotient pairs."""
    rng = random.Random(seed)
    pairs = []
    for n, k, j in ((11, 4, 3), (10, 5, 4), (9, 5, 3), (8, 4, 2), (8, 4, 4)):
        g = default_ground(n)
        pairs.append((uniform(k, g), uniform(j, g)))
    for (n1, k1, j1), (n2, k2, j2) in (((5, 3, 2), (6, 3, 2)), ((4, 2, 1), (5, 3, 2)), ((4, 2, 2), (6, 4, 2))):
        g1 = GroundSet(tuple(f"x{i}" for i in range(n1)))
        g2 = GroundSet(tuple(f"y{i}" for i in range(n2)))
        pairs.append(
            (direct_sum(uniform(k1, g1), uniform(k2, g2)), direct_sum(uniform(j1, g1), uniform(j2, g2)))
        )
    for vertices, edges in ((6, 9), (6, 10), (7, 10), (7, 11)):
        upper, lower = random_graph_pair(rng, vertices, edges)
        pairs.append((cycle_matroid(upper), cycle_matroid(lower)))
    return pairs + [(ml, mu) for mu, ml in pairs]


def assert_df_witness_replays(v, fam):
    """Replay a (DF) witness: F1 Δ {x, y} lies outside the family for every
    y in F1 Δ F2, and y = x reads F1 Δ {x}."""
    assert v.axiom == "DF"
    pivot = fam.ground.subset(v.pivot)
    assert v.pivot in v.first ^ v.second
    for lab in v.first ^ v.second:
        assert (v.first ^ (pivot | fam.ground.subset(lab))) not in fam


def size_classes_family(n, sizes):
    g = default_ground(n)
    return SetFamily(g, tuple(m for m in g.all_masks() if m.bit_count() in sizes))


class TestSymmetricExchange:
    def test_empty_and_pair(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(SetFamily.from_labels(g, [[], ["a", "b"]]))
        assert isinstance(d, DeltaMatroid)

    def test_full_powerset_of_two(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(SetFamily.from_labels(g, [["a", "b"], ["a"], ["b"], []]))
        assert isinstance(d, DeltaMatroid)

    def test_two_size_classes(self):
        # all subsets of sizes k-1 or k+1 of an n-set, k=2, n=4
        d = DeltaMatroid.certify(size_classes_family(4, (1, 3)))
        assert isinstance(d, DeltaMatroid)

    def test_violation_witness_replays(self):
        g = default_ground(3)
        fam = SetFamily.from_labels(g, [[], ["a", "b", "c"]])
        with pytest.raises(AxiomError) as e:
            DeltaMatroid.certify(fam)
        v = e.value.violation
        assert isinstance(v, ExchangeViolation)
        assert v.first == g.subset("abc") and v.second == g.subset() and v.pivot == "a"
        assert_df_witness_replays(v, fam)

    def test_empty_family_rejected(self):
        with pytest.raises(InputError):
            DeltaMatroid.certify(SetFamily(default_ground(2), ()))

    def test_matches_naive_oracle_exhaustively(self):
        for n in range(4):
            g = default_ground(n)
            for code in range(1, 1 << (1 << n)):
                masks = _decode_family(code)
                members = {frozenset(g.labels_of(m)) for m in masks}
                try:
                    got = DeltaMatroid.certify(SetFamily(g, masks))
                except AxiomError as e:
                    got = e.violation
                assert isinstance(got, DeltaMatroid) == naive_satisfies_exchange(members)


class TestSixteenElementCap:
    """(DF) certification at the ground-size cap, on families with closed-form counts."""

    def test_even_sets_certify(self):
        fam = size_classes_family(16, range(0, 17, 2))
        assert len(fam) == 2**15
        assert DeltaMatroid.certify(fam).feasibles == fam

    def test_sandwich_of_u8_over_u7_certifies(self):
        g = default_ground(16)
        mu, ml = uniform(8, g), uniform(7, g)
        fam = construct_sandwich(mu, ml)
        assert len(fam) == comb(16, 8) + comb(16, 7) == 24310
        d = DeltaMatroid.certify(fam)
        assert d.upper == mu and d.lower == ml

    def test_u8_bases_and_one_seven_set_fail_with_witness(self):
        g = default_ground(16)
        fam = SetFamily(g, uniform(8, g).bases.masks + (g.subset("abcdefg").mask,))
        assert len(fam) == comb(16, 8) + 1
        with pytest.raises(AxiomError) as e:
            DeltaMatroid.certify(fam)
        v = e.value.violation
        assert (v.first, v.second, v.pivot) == (g.subset("abcdefg"), g.subset("abcdefhi"), "g")
        assert_df_witness_replays(v, fam)


class TestUpperLower:
    def test_two_size_classes_give_uniform_pair(self):
        d = DeltaMatroid.certify(size_classes_family(4, (1, 3)))
        assert d.upper == uniform(3, d.ground)
        assert d.lower == uniform(1, d.ground)

    def test_bases_as_feasibles_collapse(self):
        for m in enumerate_matroids(3):
            d = DeltaMatroid.certify(m.bases)
            assert d.upper == m and d.lower == m

    def test_independents_as_feasibles(self):
        m = uniform(2, default_ground(3))
        d = DeltaMatroid.certify(m.independents())
        assert d.upper == m
        assert d.lower.rank == 0

    def test_extracted_layers_pass_mb(self):
        # upper and lower skip re-certification (Bouchet); certify them anyway
        # on every delta-matroid at n = 4 and on sandwiches of 8-10 elements
        deltas = list(enumerate_delta_matroids(4))
        assert len(deltas) == 5959
        rng = random.Random(3)
        pairs = [
            (uniform(k, default_ground(n)), uniform(j, default_ground(n)))
            for n, k, j in ((8, 4, 2), (9, 5, 3), (10, 3, 2))
        ]
        for vertices, edges in ((5, 8), (6, 9), (6, 10)):
            upper, lower = random_graph_pair(rng, vertices, edges)
            pairs.append((cycle_matroid(upper), cycle_matroid(lower)))
        for mu, ml in pairs:
            assert is_pairable(mu, ml).pairable
            d = DeltaMatroid.certify(construct_sandwich(mu, ml))
            assert (d.upper, d.lower) == (mu, ml)
            deltas.append(d)
        for d in deltas:
            assert Matroid.certify(d.upper.bases) == d.upper
            assert Matroid.certify(d.lower.bases) == d.lower


class TestLayers:
    def test_layers_are_the_extreme_size_members(self):
        # every nonempty family up to n = 3 (one size, ties), then (DF) at n = 4
        fams = [(default_ground(n), _decode_family(c)) for n in range(4) for c in range(1, 1 << (1 << n))]
        fams += [(d.ground, d.feasibles.masks) for d in enumerate_delta_matroids(4)]
        for g, masks in fams:
            sizes = [m.bit_count() for m in masks]
            want = tuple(tuple(m for m in masks if m.bit_count() == k) for k in (min(sizes), max(sizes)))
            n = g.size
            assert _code_layers(_indicator(masks, n), n) == tuple(_indicator(layer, n) for layer in want), masks
            d = DeltaMatroid._trusted(g, _indicator(masks, n))
            assert (d.lower.bases.masks, d.upper.bases.masks) == want, masks


class TestFeasibleCode:
    def test_trusted_code_matches_the_certified_family(self):
        # every (DF) code at n <= 4: the object built from the code and the
        # one certified from its decoded family are one delta-matroid
        seen = 0
        for n in range(5):
            g = default_ground(n)
            for c in delta_codes(n):
                d = DeltaMatroid._trusted(g, c)
                ref = DeltaMatroid.certify(SetFamily(g, _decode_family(c)))
                assert d == ref and hash(d) == hash(ref), c
                assert d.feasibles.masks == ref.feasibles.masks, c
                assert (d.upper, d.lower) == (ref.upper, ref.lower), c
                seen += 1
        assert seen == 6133

    def test_family_is_decoded_only_when_read(self):
        g = default_ground(3)
        d = DeltaMatroid._trusted(g, _indicator((0b001, 0b011, 0b111), 3))
        assert d.upper.bases.masks == (0b111,) and d.lower.bases.masks == (0b001,)
        assert d.complement_dual() == DeltaMatroid._trusted(g, _indicator((0b000, 0b100, 0b110), 3))
        assert "feasibles" not in vars(d)
        assert d.feasibles.masks == (0b001, 0b011, 0b111)


class TestComplementDual:
    def test_involution(self):
        for d in enumerate_delta_matroids(3):
            assert d.complement_dual().complement_dual() == d

    def test_upper_lower_exchange(self):
        for d in enumerate_delta_matroids(3):
            ds = d.complement_dual()
            assert ds.upper == d.lower.dual()
            assert ds.lower == d.upper.dual()

    def test_complements_are_delta_matroids_up_to_n4(self):
        # complement_dual is not re-certified: the complement is a twist
        for n in range(5):
            codes = set(delta_codes(n))
            for d in enumerate_delta_matroids(n):
                assert sum(1 << m for m in d.complement_dual().feasibles.masks) in codes, d

    def test_self_complementary_pair(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(SetFamily.from_labels(g, [[], ["a", "b"]]))
        assert d.complement_dual() == d


class TestMinors:
    def test_delete_contract_empty_is_identity(self):
        for d in enumerate_delta_matroids(3):
            empty = Subset(d.ground, 0)
            assert d.delete(empty).feasibles.member_labels() == d.feasibles.member_labels()
            assert d.contract(empty).feasibles.member_labels() == d.feasibles.member_labels()

    def test_delete_single_element_from_size_classes(self):
        d = DeltaMatroid.certify(size_classes_family(4, (1, 3)))
        x = d.ground.subset("d")
        minor = d.delete(x)
        expect = {frozenset(set(f.labels) - {"d"}) for f in d.feasibles}
        assert {frozenset(f.labels) for f in minor.feasibles} == expect
        assert naive_satisfies_exchange({frozenset(f.labels) for f in minor.feasibles})

    def test_delete_requires_x_inside_some_feasible(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(SetFamily.from_labels(g, [["a"]]))
        with pytest.raises(InputError):
            d.delete(g.subset("b"))

    def test_literal_formula_preserves_exchange_at_desk_scale(self):
        # delete and contract keep {F \ X} for *every* feasible F, built
        # without a check; its code is a delta-matroid's for every
        # delta-matroid and X at n <= 3, and every one-element X at n = 4
        universes = {k: set(delta_codes(k)) for k in range(4)}
        minors = 0
        for n in range(1, 5):
            for d in enumerate_delta_matroids(n):
                for x in [1 << i for i in range(n)] if n == 4 else range(1, 1 << n):
                    for project in (d.delete, d.contract):
                        try:
                            minor = project(Subset(d.ground, x))
                        except InputError:
                            continue
                        assert minor._feasibles in universes[minor.ground.size], (d._feasibles, x)
                        minors += 1
        assert minors == 48194

    def test_contract_matches_dual_delete_dual(self):
        # reference on masks: complement every feasible set in E, delete X,
        # then complement every set in E - X
        for d in enumerate_delta_matroids(3):
            full = d.ground.full_mask
            for x in range(1, 1 << 3):
                if not any(x & ~(full ^ f) == 0 for f in d.feasibles.masks):
                    continue
                keep = [i for i in range(3) if not x >> i & 1]
                rest = (1 << len(keep)) - 1
                deleted = [sum(1 << j for j, i in enumerate(keep) if (full ^ f) >> i & 1) for f in d.feasibles.masks]
                want = SetFamily(GroundSet(tuple(d.ground.labels[i] for i in keep)), tuple(rest ^ f for f in deleted))
                got = d.contract(Subset(d.ground, x))
                assert got.feasibles == want and got == DeltaMatroid.certify(want)

    def test_projections_decode_no_family(self, monkeypatch):
        # delete, contract and restrict_to_contained read the feasible code:
        # against the mask definitions, with every decode in delta.py refused
        cases = []
        for n in range(4):
            for d in enumerate_delta_matroids(n):
                masks = _decode_family(d._feasibles)
                for x in range(1 << n):
                    rest = d.ground.full_mask ^ x
                    every = reference_projection(d.ground, rest, masks)
                    cases.append((d.delete, d, x, every if any(x & ~f == 0 for f in masks) else None))
                    cases.append((d.contract, d, x, every if any(x & f == 0 for f in masks) else None))
                    inside = [f for f in masks if f & ~x == 0]
                    want = reference_projection(d.ground, x, inside) if inside else None
                    cases.append((partial(restrict_to_contained, d), d, x, want))

        def no_decode(code):
            raise AssertionError("a projection decoded a family")

        monkeypatch.setattr("deltamatroids.delta._decode_family", no_decode)
        built = 0
        for project, d, x, want in cases:
            if want is None:
                with pytest.raises(InputError):
                    project(Subset(d.ground, x))
                continue
            labels, members = want
            got = project(Subset(d.ground, x))
            assert got.ground.labels == labels and got._feasibles == _indicator(members, len(labels)), (d._feasibles, x)
            built += 1
        assert 0 < built < len(cases)

    def test_preconditions_are_one_and_each(self, monkeypatch):
        # "X lies in some feasible set" (delete) and "X misses some feasible
        # set" (contract), each one read of an up-closure, against a brute
        # force over the decoded members, for every delta-matroid and X at
        # n <= 3; a minor then projects once.  Every (inside, misses) pair
        # occurs, so an inverted or a swapped precondition fails here
        projections, seen = [], set()

        def counting_minor_code(*args):
            projections.append(args)
            return _minor_code(*args)

        monkeypatch.setattr("deltamatroids.delta._minor_code", counting_minor_code)
        for n in range(4):
            for d in enumerate_delta_matroids(n):
                members = _decode_family(d._feasibles)
                for x in range(1 << n):
                    inside = any(f & x == x for f in members)
                    misses = any(f & x == 0 for f in members)
                    seen.add((inside, misses))
                    for project, ok in ((d.delete, inside), (d.contract, misses)):
                        projections.clear()
                        if ok:
                            project(Subset(d.ground, x))
                        else:
                            with pytest.raises(InputError):
                                project(Subset(d.ground, x))
                        assert len(projections) == ok
        assert len(seen) == 4

    def test_contract_names_its_own_precondition(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(SetFamily.from_labels(g, [["a"]]))
        with pytest.raises(InputError) as err:
            d.contract(g.subset("a"))
        assert str(err.value) == "{a} meets every feasible set"
        assert d.contract(g.subset("b")).feasibles.member_labels() == [["a"]]

    def test_contract_equals_delete_where_both_are_defined(self):
        both = 0
        for n in range(4):
            for d in enumerate_delta_matroids(n):
                for x in range(1, 1 << n):
                    xs = Subset(d.ground, x)
                    inside = any(x & ~f == 0 for f in d.feasibles.masks)
                    misses = any(x & f == 0 for f in d.feasibles.masks)
                    if not misses:
                        with pytest.raises(InputError, match="meets every feasible set"):
                            d.contract(xs)
                    elif inside:
                        assert d.contract(xs) == d.delete(xs)
                        both += 1
        assert both > 0

    def test_projections_leave_universe_families_undecoded(self):
        # the enumeration makes each delta-matroid from its code, and the
        # projections read that code and cache no decoded family on it
        projected = 0
        for d in enumerate_delta_matroids(3):
            for x in range(1 << 3):
                for project in (d.delete, d.contract, lambda s: restrict_to_contained(d, s)):
                    try:
                        project(Subset(d.ground, x))
                        projected += 1
                    except InputError:
                        pass
            assert "feasibles" not in vars(d), d._feasibles
        assert projected > 0


class TestRestrictionVariants:
    def test_contained_reading_matches_its_mask_definition(self):
        # keep the feasible sets inside c, projected onto c (a delta-matroid
        # by theory: those that miss E - c); none is an error that names c
        outcomes = {"empty": 0, "kept": 0}
        for n in range(4):
            for d in enumerate_delta_matroids(n):
                for c in range(1 << n):
                    cs = Subset(d.ground, c)
                    inside = [f for f in _decode_family(d._feasibles) if f & ~c == 0]
                    if not inside:
                        with pytest.raises(InputError) as err:
                            restrict_to_contained(d, cs)
                        assert str(err.value) == f"no feasible set is contained in {cs!r}"
                        outcomes["empty"] += 1
                        continue
                    labels, members = reference_projection(d.ground, c, inside)
                    got = restrict_to_contained(d, cs)
                    assert got.ground.labels == labels and set(got.feasibles.masks) == members, (d, c)
                    outcomes["kept"] += 1
        assert all(outcomes.values()), outcomes

    def test_deletion_reading_validates_proof_step(self):
        # restricting to an upper-matroid circuit C must make the restricted
        # upper matroid the single cycle on C; the intersect-with-C reading
        # achieves this whenever defined, the keep-contained reading does not
        contained_failures = 0
        for n in range(1, 4):
            for d in enumerate_delta_matroids(n):
                for c in d.upper.circuits():
                    want = uniform(len(c) - 1, GroundSet(c.labels))
                    try:
                        r = restrict_by_deletion(d, c)
                    except (InputError, AxiomError):
                        continue
                    assert r.upper == want
                    try:
                        r2 = restrict_to_contained(d, c)
                        if r2.upper != want:
                            contained_failures += 1
                    except (InputError, AxiomError):
                        pass
        assert contained_failures > 0


class TestSandwichAndPairability:
    def test_sandwich_of_equal_matroids_is_bases(self):
        for m in enumerate_matroids(3):
            assert construct_sandwich(m, m) == m.bases

    def test_sandwich_of_uniform_pair_is_size_window(self):
        g = default_ground(4)
        fam = construct_sandwich(uniform(3, g), uniform(1, g))
        assert fam.masks == tuple(m for m in g.all_masks() if 1 <= m.bit_count() <= 3)

    def test_sandwich_of_u56_over_split_lower(self):
        g1 = GroundSet.of("1", "2", "3")
        g2 = GroundSet.of("a", "b", "c")
        ml = direct_sum(uniform(2, g1), uniform(2, g2))
        mu = uniform(5, ml.ground)
        fam = construct_sandwich(mu, ml)
        # oracle: direct filter on sizes and per-block intersections
        block1 = ml.ground.subset("123").mask
        block2 = ml.ground.subset("abc").mask
        want = tuple(
            m
            for m in ml.ground.all_masks()
            if m.bit_count() <= 5 and (m & block1).bit_count() >= 2 and (m & block2).bit_count() >= 2
        )
        assert fam.masks == want
        d = DeltaMatroid.certify(fam)
        assert d.upper == mu and d.lower == ml

    def test_pairable_with_self(self):
        for m in enumerate_matroids(3):
            assert is_pairable(m, m).pairable

    def test_agrees_with_quotient_and_least_failing_circuit_up_to_n3(self):
        def circuits(m):  # minimal dependent sets, from the bases alone
            dep = [s for s in m.ground.all_masks() if not any(s & ~b == 0 for b in m.bases.masks)]
            return [c for c in dep if not any(x != c and x & ~c == 0 for x in dep)]

        def union_inside(c, cs):
            union = 0
            for x in cs:
                union |= x if x & ~c == 0 else 0
            return union

        pairs = 0
        for n in range(4):
            mats = list(enumerate_matroids(n))
            for mu, ml in product(mats, repeat=2):
                rep = is_pairable(mu, ml)
                assert rep.pairable == is_quotient(ml, mu), (mu, ml)
                least = next((c for c in circuits(mu) if c != union_inside(c, circuits(ml))), None)
                assert (None if rep.pairable else rep.offending_circuit.mask) == least, (mu, ml)
                pairs += 1
        assert pairs == 1 + 4 + 25 + 256

    def test_agrees_with_circuit_union_reference_at_n4(self):
        mats = list(enumerate_matroids(4))
        circuits = {m: reference_circuits(m) for m in mats}
        pairable = 0
        for mu, ml in product(mats, repeat=2):
            least = reference_offending_circuit(circuits[mu], circuits[ml])
            rep = is_pairable(mu, ml)
            assert (None if rep.pairable else rep.offending_circuit.mask) == least, (mu, ml)
            assert is_quotient(ml, mu) == (least is None), (mu, ml)
            pairable += rep.pairable
        assert (len(mats) ** 2, pairable) == (4624, 558)

    def test_agrees_with_circuit_union_reference_on_seeded_pairs(self):
        verdicts = set()
        for mu, ml in seeded_pairs():
            least = reference_offending_circuit(reference_circuits(mu), reference_circuits(ml))
            rep = is_pairable(mu, ml)
            assert (None if rep.pairable else rep.offending_circuit.mask) == least, (mu, ml)
            assert is_quotient(ml, mu) == (least is None), (mu, ml)
            verdicts.add(rep.pairable)
        assert verdicts == {True, False}

    def test_agrees_with_circuit_union_reference_on_corpus_graphs(self):
        # each corpus graph's and cone's (rigidity, cycle) pair, in both orders
        verdicts = []
        for g in CORPUS.values():
            for h in (g, cone(g).cone_graph):
                mr, mc = rigidity_matroid(h), cycle_matroid(h)
                for mu, ml in ((mr, mc), (mc, mr)):
                    least = reference_offending_circuit(reference_circuits(mu), reference_circuits(ml))
                    rep = is_pairable(mu, ml)
                    assert (None if rep.pairable else rep.offending_circuit.mask) == least, (mu, ml)
                    verdicts.append(rep.pairable)
        assert len(verdicts) == 4 * len(CORPUS) and set(verdicts) == {True, False}

    def test_u56_pair_is_pairable(self):
        ml = direct_sum(uniform(2, GroundSet.of("1", "2", "3")), uniform(2, GroundSet.of("a", "b", "c")))
        rep = is_pairable(uniform(5, ml.ground), ml)
        assert rep.pairable and rep.offending_circuit is None

    def test_unpairable_pair_reports_circuit(self):
        # b is a loop of the upper matroid but not of the lower one, so the
        # upper circuit {b} cannot be a union of lower circuits
        g = default_ground(2)
        mu = Matroid.certify(SetFamily.from_labels(g, [["a"]]))
        ml = Matroid.certify(SetFamily.from_labels(g, [["b"]]))
        rep = is_pairable(mu, ml)
        assert not rep.pairable
        assert rep.offending_circuit == g.subset("b")

    def test_ground_mismatch_rejected(self):
        with pytest.raises(InputError):
            is_pairable(uniform(1, default_ground(2)), uniform(1, default_ground(3)))

    def test_inconsistent_report_rejected(self):
        g = default_ground(2)
        with pytest.raises(InputError):
            PairabilityReport(pairable=True, offending_circuit=g.subset("a"))
        with pytest.raises(InputError):
            PairabilityReport(pairable=False)

    def test_inconsistent_report_rejected_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        snippet = (
            "from deltamatroids import InputError, PairabilityReport\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    PairabilityReport(pairable=False)\n"
            "except InputError:\n"
            "    print('rejected')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-O", "-c", snippet], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "rejected\n"


class TestBouchetTriple:
    def test_u12_families(self):
        m = uniform(1, default_ground(2))
        by_bases, by_indep, by_span = bouchet_triple(m)
        assert by_bases.feasibles.member_labels() == [["a"], ["b"]]
        assert by_indep.feasibles.member_labels() == [[], ["a"], ["b"]]
        assert by_span.feasibles.member_labels() == [["a"], ["b"], ["a", "b"]]

    def test_rank_extremes(self):
        for m in enumerate_matroids(3):
            _, by_indep, by_span = bouchet_triple(m)
            assert by_indep.lower.rank == 0
            assert by_span.upper.rank == m.ground.size


class TestBuiltByTheorem:
    # the minors, the restrictions and bouchet_triple build delta-matroids by
    # theorem, without the (DF) check; only certify runs it
    def test_only_certify_runs_the_check(self, monkeypatch):
        def refuse(fam, code, axiom):
            raise AssertionError("a theorem-built family was checked")

        monkeypatch.setattr("deltamatroids.delta._certify_exchange", refuse)
        g = default_ground(4)
        d = DeltaMatroid._trusted(g, _indicator([m for m in g.all_masks() if m.bit_count() in (1, 3)], 4))
        x, c = g.subset("d"), g.subset("abc")
        built = [d.delete(x), d.contract(x), restrict_to_contained(d, c), restrict_by_deletion(d, c)]
        built += bouchet_triple(uniform(2, g))
        assert [r.ground.size for r in built] == [3, 3, 3, 3, 4, 4, 4]
        with pytest.raises(AssertionError, match="theorem-built"):
            DeltaMatroid.certify(SetFamily(g, (1, 2)))

    def test_results_lie_in_the_delta_universe(self):
        # the minors' codes are tested in TestMinors; here every delta-matroid
        # at n <= 3 with every c, n = 4 with every c = E - e, and
        # bouchet_triple on every matroid at n <= 4
        universes = {k: set(delta_codes(k)) for k in range(5)}
        results = []
        for n in range(5):
            for d in enumerate_delta_matroids(n):
                for c in [d.ground.full_mask ^ 1 << i for i in range(n)] if n == 4 else range(1 << n):
                    for restrict in (restrict_to_contained, restrict_by_deletion):
                        try:
                            results.append(restrict(d, Subset(d.ground, c)))
                        except InputError:
                            pass
            for m in enumerate_matroids(n):
                results += bouchet_triple(m)
        misses = [r for r in results if r._feasibles not in universes[r.ground.size]]
        assert misses == [] and len(results) == 48818


class TestInputChecks:
    # each message exactly, so a changed text is caught
    def test_direct_construction_is_refused(self):
        with pytest.raises(TypeError) as err:
            DeltaMatroid(default_ground(1), 0b1)
        assert str(err.value) == "use DeltaMatroid.certify to build delta-matroids"

    def test_sandwich_of_mismatched_grounds(self):
        with pytest.raises(InputError) as err:
            construct_sandwich(uniform(1, default_ground(2)), uniform(1, GroundSet.of("x", "y")))
        assert str(err.value) == "sandwich requires a common ground set"

    def test_fmax_lower_uniform_needs_a_uniform_lower_matroid(self):
        d = DeltaMatroid.certify(SetFamily.from_labels(default_ground(2), [["a"]]))
        with pytest.raises(InputError) as err:
            fmax_lower_uniform(d)
        assert str(err.value) == "lower matroid is not uniform over the full ground set"

    def test_restrictions_refuse_a_set_over_another_ground(self):
        d = DeltaMatroid.certify(SetFamily.from_labels(default_ground(2), [[], ["a", "b"]]))
        for restrict in (restrict_to_contained, restrict_by_deletion):
            with pytest.raises(InputError) as err:
                restrict(d, GroundSet.of("x", "y").subset("x"))
            assert str(err.value) == "restriction set over a different ground set", restrict


class TestFmax:
    def test_worked_example_adds_all_three_sets(self):
        # E = {a,b,c,d}, feasibles: E itself plus all 1- and 2-subsets
        g = default_ground(4)
        fam = SetFamily(g, tuple(m for m in g.all_masks() if m.bit_count() in (1, 2)) + (g.full_mask,))
        d = DeltaMatroid.certify(fam)
        out = fmax_upper_uniform(d)
        assert out.masks == tuple(m for m in g.all_masks() if m.bit_count() >= 1)
        dm = DeltaMatroid.certify(out)
        assert dm.lower == d.lower and dm.upper == d.upper

    def test_already_maximal_is_fixpoint(self):
        d = DeltaMatroid.certify(size_classes_family(3, (1, 2, 3)))
        assert fmax_upper_uniform(d) == d.feasibles

    def test_single_set_augmentation_breaks(self):
        g = default_ground(4)
        fam = SetFamily(g, tuple(m for m in g.all_masks() if m.bit_count() >= 1))
        d = DeltaMatroid.certify(fam)
        # only the empty set can be added, and it changes the lower matroid
        aug = DeltaMatroid.certify(SetFamily(g, fam.masks + (0,)))
        assert aug.lower != d.lower

    def test_lower_uniform_variant(self):
        d = DeltaMatroid.certify(size_classes_family(3, (0, 2)))
        out = fmax_lower_uniform(d)
        dm = DeltaMatroid.certify(out)
        assert dm.upper == d.upper

    def test_uniformity_precondition_enforced(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(SetFamily.from_labels(g, [["a"]]))
        with pytest.raises(InputError):
            fmax_upper_uniform(d)


class TestEnumeration:
    def test_n1_exact(self):
        fams = [d.feasibles.member_labels() for d in enumerate_delta_matroids(1)]
        assert fams == [[[]], [["a"]], [[], ["a"]]]

    def test_n2_count_matches_naive(self):
        g = default_ground(2)
        naive = 0
        for code in range(1, 1 << 4):
            members = {frozenset(g.labels_of(m)) for m in _decode_family(code)}
            if naive_satisfies_exchange(members):
                naive += 1
        assert naive == 15 == sum(1 for _ in enumerate_delta_matroids(2))

    def test_cap(self):
        with pytest.raises(InputError):
            next(enumerate_delta_matroids(5))

    def test_df_witnesses_equal_reference_up_to_n4(self):
        for n in range(5):
            g = default_ground(n)
            for code in range(1, 1 << (1 << n)):
                masks = _decode_family(code)
                try:
                    got = DeltaMatroid.certify(SetFamily(g, masks))
                except AxiomError as e:
                    got = e.violation
                ref = reference_delta_violation(masks)
                assert _exchange_ok(code, "DF") == (ref is None), masks
                if ref is None:
                    assert isinstance(got, DeltaMatroid)
                else:
                    f1, f2, xb = ref
                    assert isinstance(got, ExchangeViolation)
                    assert (got.first.mask, got.second.mask) == (f1, f2)
                    assert got.pivot == g.labels[xb.bit_length() - 1]


class TestNonUniqueness:
    def test_distinct_deltas_share_upper_and_lower(self):
        g = default_ground(2)
        d1 = DeltaMatroid.certify(SetFamily.from_labels(g, [[], ["a"], ["b"], ["a", "b"]]))
        d2 = DeltaMatroid.certify(SetFamily.from_labels(g, [[], ["a", "b"]]))
        assert d1 != d2
        assert d1.upper == d2.upper and d1.lower == d2.lower
