import itertools
import random

import pytest

from deltamatroids import (
    InputError,
    Matroid,
    SearchReport,
    SetFamily,
    check_basis_axiom,
    default_ground,
    find_unpairable_pair,
    verify_property,
)
from deltamatroids.core import Subset
from deltamatroids.delta import (
    DeltaMatroid,
    PairabilityReport,
    _delta_ok,
    construct_sandwich,
    fmax_lower_uniform,
    fmax_upper_uniform,
    is_pairable,
)
from deltamatroids.matroids import _decode_family, _exchange_failures, _exchange_ok
from deltamatroids.rigidity import Multigraph, cycle_matroid
from deltamatroids.search import (
    PROPERTY_IDS,
    _augmentation_breaks,
    _uplow_cases,
    _universe,
    _codes,
    _graphic_pool,
    _twists,
    constrained_realization,
    delta_codes,
    enumerate_delta_matroids,
    enumerate_matroids,
    matroid_codes,
)
from deltamatroids.serialize import delta_to_json, matroid_from_json, matroid_to_json


@pytest.fixture
def fresh_universes():
    """Start from no shared universe, and let none built under the test's
    patches outlive it."""
    _universe.cache_clear()
    yield
    _universe.cache_clear()


class TestEnumeration:
    def test_matroids_n1(self):
        fams = [m.bases.member_labels() for m in enumerate_matroids(1)]
        assert fams == [[[]], [["a"]]]

    def test_counts_small(self):
        assert [len(matroid_codes(n)) for n in range(4)] == [1, 2, 5, 16]
        assert [len(delta_codes(n)) for n in range(4)] == [1, 3, 15, 155]

    def test_emitted_matroids_recertify(self):
        for m in enumerate_matroids(3):
            assert isinstance(check_basis_axiom(m.bases), Matroid)

    def test_no_duplicates(self):
        seen = set()
        for m in enumerate_matroids(3):
            assert m.bases.masks not in seen
            seen.add(m.bases.masks)

    def test_cap(self):
        with pytest.raises(InputError):
            matroid_codes(5)

    @pytest.mark.parametrize("axiom", ["MB", "DF"])
    @pytest.mark.parametrize("n", range(5))
    def test_codes_equal_full_range_scan(self, axiom, n):
        # reference: every family code through the axiom, no minor pruning
        ref = [c for c in range(1, 1 << (1 << n)) if _exchange_ok(_decode_family(c), axiom)]
        assert _codes(axiom, n) == ref, (axiom, n)

    def test_df_n4_runs_the_axiom_on_a_fraction_of_codes(self, monkeypatch, fresh_universes):
        calls = []

        def counting(source, members, axiom):
            calls.append(source)
            return _exchange_failures(source, members, axiom)

        monkeypatch.setattr("deltamatroids.matroids._exchange_failures", counting)
        assert len(_codes("DF", 4)) == 5959
        assert len(calls) == 912  # one kernel call per twist orbit of the 11,612 candidates
        calls.clear()
        assert len(_codes("MB", 4)) == 68
        assert len(calls) == 164  # not twist-invariant: every candidate runs


class TestTwists:
    """(DF) holds on all of a twist orbit {F Δ S : F in family} or on none of
    it, which lets the (DF) build decide a whole orbit with one kernel call."""

    @staticmethod
    def _codes_to_check():
        for n in range(4):
            for code in range(1, 1 << (1 << n)):
                yield code, n
        rng = random.Random(20260418)
        for _ in range(2000):
            yield rng.randrange(1, 1 << 16), 4

    def test_df_verdict_is_constant_on_each_orbit(self):
        for code, n in self._codes_to_check():
            verdicts = {_exchange_ok(_decode_family(t), "DF") for t in _twists(code, n)}
            assert len(verdicts) == 1, (code, n)

    def test_orbits_are_twists_by_every_subset(self):
        for k in range(5):
            assert _twists(1, k) == {1 << m for m in range(1 << k)}  # every {S}
        for code, n in self._codes_to_check():
            orbit = _twists(code, n)
            family = _decode_family(code)
            by_subset = {sum(1 << (f ^ s) for f in family) for s in range(1 << n)}
            assert orbit == by_subset and (1 << n) % len(orbit) == 0, (code, n)


class TestVerifyProperty:
    @pytest.mark.parametrize("pid", PROPERTY_IDS)
    def test_all_properties_hold_at_n3(self, pid):
        report = verify_property(pid, 3)
        assert report.holds
        assert report.universe_size > 0
        assert report.witnesses == []

    @pytest.mark.parametrize(
        "pid, sizes",
        [
            ("mb-equicardinal", [1, 2, 5, 16, 68]),
            ("independents-are-delta", [1, 2, 5, 16, 68]),
            ("spanning-are-delta", [1, 2, 5, 16, 68]),
            ("uplow", [1, 3, 15, 155, 5959]),
            ("necessity-circuit-union", [1, 3, 15, 155, 5959]),
            ("dual-exchange", [1, 3, 15, 155, 5959]),
            ("sufficiency-sandwich", [1, 4, 25, 256, 4624]),
            ("fmax-maximal", [2, 6, 22, 190, 8094]),
        ],
    )
    def test_universe_sizes_up_to_n4(self, pid, sizes):
        reports = [verify_property(pid, n) for n in range(5)]
        assert [r.universe_size for r in reports] == sizes
        assert all(r.holds and r.witnesses == [] for r in reports)

    def test_mb_equicardinal_reports_unequal_family(self, monkeypatch, fresh_universes):
        # the universe comes from (MB) by its definition; let the kernel
        # wrongly accept {{}, {a}} and the theorem check must name that family
        odd = (0b0, 0b1)

        def lenient(source, members, axiom):
            return iter(()) if tuple(source) == odd else _exchange_failures(source, members, axiom)

        monkeypatch.setattr("deltamatroids.matroids._exchange_failures", lenient)
        report = verify_property("mb-equicardinal", 1)
        assert not report.holds
        assert report.universe_size == 3
        assert report.witnesses == [{"ground": ["a"], "members": [[], ["a"]]}]

    def test_unknown_property(self):
        with pytest.raises(InputError):
            verify_property("bogus-id", 3)

    def test_elapsed_excluded_from_canonical_form(self):
        r = SearchReport("x", 1, True, [], elapsed=1.23)
        assert b"elapsed" not in r.canonical_bytes()
        assert "elapsed" not in r.to_json() and r.elapsed == 1.23


class TestSharedUniverses:
    def test_reports_equal_cold_and_warm_in_either_order(self, fresh_universes):
        keys = [(pid, n) for pid in PROPERTY_IDS for n in range(5)]
        cold = {}
        for k in keys:
            _universe.cache_clear()
            cold[k] = verify_property(*k).canonical_bytes()
        for order in (keys, keys[::-1]):
            _universe.cache_clear()
            for k in order:
                assert verify_property(*k).canonical_bytes() == cold[k], k

    def test_second_df_sweep_builds_nothing(self, monkeypatch, fresh_universes):
        verify_property("uplow", 4)
        kernel, inits = [], []

        def counting_kernel(source, members, axiom):
            kernel.append(source)
            return _exchange_failures(source, members, axiom)

        def counting(cls):
            real_init = cls.__init__

            def counting_init(self, *args, **kwargs):
                inits.append(self)
                real_init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        monkeypatch.setattr("deltamatroids.matroids._exchange_failures", counting_kernel)
        counting(DeltaMatroid)
        counting(Matroid)
        report = verify_property("necessity-circuit-union", 4)
        assert report.universe_size == 5959 and report.holds
        assert kernel == [] and inits == []

    def test_public_lists_are_fresh(self, fresh_universes):
        codes = delta_codes(2)
        codes.clear()
        assert len(delta_codes(2)) == 15
        assert [d.feasibles.masks for d in enumerate_delta_matroids(2)] == [
            _decode_family(c) for c in delta_codes(2)
        ]


class TestSharedLayers:
    """Each (DF) object's upper and lower matroid is the (MB) universe's own
    object, and the sweeps that share work per pair agree with per-object
    references."""

    def test_layers_are_the_mb_universe_objects(self, fresh_universes):
        seen = 0
        for n in range(5):
            mats = {id(m) for m in _universe("MB", n)[1]()}
            for d in _universe("DF", n)[1]():
                fresh = DeltaMatroid._trusted(d.ground, d.feasibles.masks)
                assert id(d.upper) in mats and id(d.lower) in mats
                assert d.upper == fresh.upper and d.lower == fresh.lower
                seen += 1
        assert seen == 6133

    def test_layer_missing_from_mb_universe_raises(self, monkeypatch, fresh_universes):
        def strict(source, members, axiom):  # (MB) wrongly rejects U(1,2)
            if axiom == "MB" and tuple(source) == (0b01, 0b10):
                return iter([(0b01, 0b01, 1 << 0b10)])
            return _exchange_failures(source, members, axiom)

        monkeypatch.setattr("deltamatroids.matroids._exchange_failures", strict)
        with pytest.raises(RuntimeError, match="missing from the"):
            verify_property("uplow", 2)

    def test_uplow_matches_reference_on_every_family(self):
        # any nonempty family up to n = 3, delta-matroid or not, then (DF) at n = 4
        for n in range(4):
            g = default_ground(n)
            for code in range(1, 1 << (1 << n)):
                d = DeltaMatroid._trusted(g, _decode_family(code))
                assert list(_uplow_cases(d, (), {})) == list(_uplow_reference(d)), d
        ref = [w for d in enumerate_delta_matroids(4) for w in _uplow_reference(d)]
        assert verify_property("uplow", 4).to_json() == _report_json("uplow", ref)

    def test_fmax_matches_reference_when_perturbed(self, monkeypatch, fresh_universes):
        # a verdict that splits pairs, and a family that misses a set strictly
        # between the ranks, which only some objects of a pair have: the
        # per-pair memo must still give per-object answers
        def delta_ok(masks):
            return _delta_ok(masks) and len(masks) % 5 != 0

        def breaks(dm):  # the family above is never maximal; judge the rest
            return True

        def upper_family(d):
            fam = fmax_upper_uniform(d).masks
            mid = [m for m in fam if d.lower.rank < m.bit_count() < d.upper.rank]
            return SetFamily(d.ground, tuple(m for m in fam if mid[-1:] != [m]))

        monkeypatch.setattr("deltamatroids.search._delta_ok", delta_ok)
        monkeypatch.setattr("deltamatroids.search._augmentation_breaks", breaks)
        monkeypatch.setattr("deltamatroids.search.fmax_upper_uniform", upper_family)
        for n in range(1, 5):
            ref = [
                w
                for d in enumerate_delta_matroids(n)
                for w in _fmax_reference(d, delta_ok, breaks, upper_family, fmax_lower_uniform)
            ]
            assert verify_property("fmax-maximal", n).to_json() == _report_json("fmax-maximal", ref)
        assert any(w is None for w in ref) and any(w is not None for w in ref)

    def test_realization_sweeps_match_references_when_perturbed(self, monkeypatch, fresh_universes):
        # a verdict flipped on some families, and families that lose their
        # least or greatest member for some matroids or pairs, so that both
        # the verdict and the layer comparison decide some cases
        def delta_ok(masks):
            return _delta_ok(masks) != (len(masks) % 5 == 0)

        def independents(m):
            fam = real_independents(m).masks
            return SetFamily(m.ground, fam[1:] if len(fam) % 3 == 0 else fam)

        def spanning_sets(m):
            fam = real_spanning_sets(m).masks
            return SetFamily(m.ground, fam[:-1] if len(fam) % 3 == 0 else fam)

        def sandwich(mu, ml):
            fam = construct_sandwich(mu, ml).masks
            return SetFamily(mu.ground, fam[:-1] if len(fam) % 3 == 0 else fam)

        real_independents, real_spanning_sets = Matroid.independents, Matroid.spanning_sets
        monkeypatch.setattr("deltamatroids.search._delta_ok", delta_ok)
        monkeypatch.setattr(Matroid, "independents", independents)
        monkeypatch.setattr(Matroid, "spanning_sets", spanning_sets)
        monkeypatch.setattr("deltamatroids.search.construct_sandwich", sandwich)
        refs = {}
        for n in range(5):
            ms = list(enumerate_matroids(n))
            refs = {
                "independents-are-delta": [_independents_reference(m, delta_ok) for m in ms],
                "spanning-are-delta": [_spanning_reference(m, delta_ok) for m in ms],
                "sufficiency-sandwich": [
                    _sufficiency_reference(mu, ml, delta_ok, sandwich) for mu in ms for ml in ms
                ],
            }
            for pid, ref in refs.items():
                assert verify_property(pid, n).to_json() == _report_json(pid, ref), (pid, n)
        for pid, ref in refs.items():
            assert any(w is None for w in ref) and any(w is not None for w in ref), pid
        kinds = {w["kind"] for w in refs["sufficiency-sandwich"] if w is not None}
        assert kinds == {"sandwich-failed", "realization-despite-unpairable"}

    def test_dual_exchange_and_necessity_match_references(self, monkeypatch, fresh_universes):
        # as shipped, then with a dual and a pairability verdict that fail on
        # some pairs only, so the per-pair memos must still name each object
        def unpairable_sometimes(mu, ml):
            if (len(mu.bases) + 2 * len(ml.bases)) % 3 == 0:
                return PairabilityReport(False, Subset(mu.ground, mu.ground.full_mask))
            return is_pairable(mu, ml)

        def dual_sometimes(m):
            return m if len(m.bases) % 2 else real_dual(m)

        real_dual = Matroid.dual
        for patched in (False, True):
            _universe.cache_clear()
            if patched:
                monkeypatch.setattr("deltamatroids.search.is_pairable", unpairable_sometimes)
                monkeypatch.setattr(Matroid, "dual", dual_sometimes)
            pairable = unpairable_sometimes if patched else is_pairable
            for n in range(5):
                ds = list(enumerate_delta_matroids(n))
                refs = {
                    "dual-exchange": [w for d in ds for w in _dual_exchange_reference(d)],
                    "necessity-circuit-union": [w for d in ds for w in _necessity_reference(d, pairable)],
                }
                for pid, ref in refs.items():
                    assert verify_property(pid, n).to_json() == _report_json(pid, ref), (pid, n)
            if patched:
                assert not all(w is None for w in refs["dual-exchange"])
                assert not all(w is None for w in refs["necessity-circuit-union"])

    def test_dual_exchange_sees_a_complement_that_loses_a_member(self, monkeypatch):
        # one member strictly between the layers dropped, so the layers still
        # match the duals: only the complement's own (DF) verdict can fail
        real_complement_dual = DeltaMatroid.complement_dual

        def lossy(d):
            ds = real_complement_dual(d)
            mid = [m for m in ds.feasibles.masks if ds.lower.rank < m.bit_count() < ds.upper.rank]
            return DeltaMatroid._trusted(d.ground, [m for m in ds.feasibles.masks if m not in mid[:1]])

        monkeypatch.setattr(DeltaMatroid, "complement_dual", lossy)
        for n in (3, 4):
            ref = [w for d in enumerate_delta_matroids(n) for w in _dual_exchange_reference(d)]
            report = verify_property("dual-exchange", n)
            assert not report.holds and report.to_json() == _report_json("dual-exchange", ref), n

    def test_dual_exchange_makes_a_dual_per_matroid(self, monkeypatch, fresh_universes):
        _universe("DF", 4)[1]()
        made = []
        real_init = Matroid.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Matroid, "__init__", counting_init)
        assert verify_property("dual-exchange", 4).holds
        assert 0 < len(made) <= 68

    def test_patched_kernel_leaks_into_no_memo(self, monkeypatch, fresh_universes):
        cold = {pid: verify_property(pid, 3).canonical_bytes() for pid in PROPERTY_IDS}
        _universe.cache_clear()
        monkeypatch.setattr("deltamatroids.search._delta_ok", lambda masks: False)
        monkeypatch.setattr(Matroid, "dual", lambda self: self)
        for pid in ("fmax-maximal", "dual-exchange"):
            assert not verify_property(pid, 3).holds
        assert _universe("DF", 3)[2]  # the sweeps kept per-pair results
        monkeypatch.undo()
        _universe.cache_clear()
        for pid in PROPERTY_IDS:
            assert verify_property(pid, 3).canonical_bytes() == cold[pid], pid


def _report_json(pid, cases):
    witnesses = [w for w in cases if w is not None]
    return {"property_id": pid, "universe_size": len(cases), "holds": not witnesses, "witnesses": witnesses}


def _dual_exchange_reference(d):
    ds = d.complement_dual()
    ok = _exchange_ok(ds.feasibles.masks, "DF") and ds.upper == d.lower.dual() and ds.lower == d.upper.dual()
    yield None if ok else delta_to_json(d)


def _necessity_reference(d, pairable):
    rep = pairable(d.upper, d.lower)
    yield None if rep.pairable else {**delta_to_json(d), "offending_circuit": list(rep.offending_circuit.labels)}


def _independents_reference(m, delta_ok):
    fam = m.independents().masks
    d = DeltaMatroid._trusted(m.ground, fam)
    ok = delta_ok(fam) and d.upper == m and d.lower.rank == 0
    return None if ok else matroid_to_json(m)


def _spanning_reference(m, delta_ok):
    fam = m.spanning_sets().masks
    d = DeltaMatroid._trusted(m.ground, fam)
    ok = delta_ok(fam) and d.lower == m and d.upper.rank == m.ground.size
    return None if ok else matroid_to_json(m)


def _sufficiency_reference(mu, ml, delta_ok, sandwich):
    pair = {"upper": matroid_to_json(mu), "lower": matroid_to_json(ml)}
    if is_pairable(mu, ml).pairable:
        fam = sandwich(mu, ml).masks
        d = DeltaMatroid._trusted(mu.ground, fam)
        ok = delta_ok(fam) and d.upper == mu and d.lower == ml
        return None if ok else {"kind": "sandwich-failed", **pair}
    found, _ = _realization_by_subfamilies(mu, ml, delta_ok)
    if found is None:
        return None
    feasibles = [list(mu.ground.labels_of(f)) for f in found]
    return {"kind": "realization-despite-unpairable", **pair, "feasibles": feasibles}


def _realization_by_subfamilies(mu, ml, delta_ok=_delta_ok):
    """Every subfamily of the sandwich holding both basis families, as sets,
    in the order of the bits of a counter over the free members."""
    forced = set(mu.bases.masks) | set(ml.bases.masks)
    sandwich = set(construct_sandwich(mu, ml).masks)
    if not forced <= sandwich:
        return None, 0
    free = sorted(sandwich - forced)
    tried = 0
    for sel in range(1 << len(free)):
        masks = tuple(sorted(forced | {free[k] for k in range(len(free)) if sel >> k & 1}))
        tried += 1
        if delta_ok(masks):
            return masks, tried
    return None, tried


def _uplow_reference(d):
    lowers, uppers = d.lower.bases.masks, d.upper.bases.masks
    ok = all(
        any(lb & ~f == 0 for lb in lowers) and any(f & ~ub == 0 for ub in uppers)
        for f in d.feasibles.masks
    )
    yield None if ok else delta_to_json(d)


def _fmax_reference(d, delta_ok, breaks, upper_family, lower_family):
    for variant, applicable, build in (
        ("upper-uniform", d.upper.is_uniform(), upper_family),
        ("lower-uniform", d.lower.is_uniform(), lower_family),
    ):
        if not applicable:
            continue
        fam = build(d)
        ok = delta_ok(fam.masks) and set(d.feasibles.masks) <= set(fam.masks)
        if ok:
            dm = DeltaMatroid._trusted(d.ground, fam.masks)
            ok = dm.upper == d.upper and dm.lower == d.lower and breaks(dm)
        yield None if ok else {**delta_to_json(d), "variant": variant}


def _augmentation_breaks_by_definition(d):
    have = set(d.feasibles.masks)
    for extra in d.ground.all_masks():
        if extra in have:
            continue
        aug = tuple(sorted(have | {extra}))
        if _delta_ok(aug):
            da = DeltaMatroid._trusted(d.ground, aug)
            if da.upper == d.upper and da.lower == d.lower:
                return False
    return True


def test_augmentation_window_matches_definition():
    seen = 0
    for n in range(5):
        for d in enumerate_delta_matroids(n):
            assert _augmentation_breaks(d) == _augmentation_breaks_by_definition(d), d
            seen += 1
    assert seen == 6133


def _graphic_pool_every_assignment(n, max_vertices):
    edge_labels = default_ground(n).labels
    seen = {}
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
            seen.setdefault(m.bases.masks, (m, g))
    return list(seen.values())


@pytest.mark.parametrize("n", range(1, 6))
def test_graphic_pool_skips_only_isomorphic_repeats(n):
    max_v = 3 if n >= 4 else n + 1  # as find_unpairable_pair
    assert _graphic_pool(n, max_v) == _graphic_pool_every_assignment(n, max_v)


class TestConstrainedRealization:
    def test_matches_subfamily_exhaust_on_every_pair(self):
        outcomes = set()
        for n in range(5):
            ms = list(enumerate_matroids(n))
            for mu, ml in itertools.product(ms, repeat=2):
                found, tried = constrained_realization(mu, ml)
                assert (found, tried) == _realization_by_subfamilies(mu, ml), (mu, ml)
                outcomes.add("none" if not tried else "exhausted" if found is None else "found")
        assert outcomes == {"none", "exhausted", "found"}

    def test_mismatched_grounds(self):
        from deltamatroids import uniform

        with pytest.raises(InputError):
            constrained_realization(uniform(1, default_ground(2)), uniform(1, default_ground(3)))

    def test_pairable_pair_has_realization(self):
        from deltamatroids import uniform

        g = default_ground(3)
        found, tried = constrained_realization(uniform(2, g), uniform(1, g))
        assert found is not None
        assert tried >= 1

    def test_loop_mismatch_has_none(self):
        from deltamatroids import SetFamily

        g = default_ground(2)
        mu = Matroid.certify(SetFamily.from_labels(g, [["a"]]))
        ml = Matroid.certify(SetFamily.from_labels(g, [["b"]]))
        found, _ = constrained_realization(mu, ml)
        assert found is None


class TestUnpairableSearch:
    def test_no_witness_at_n2(self):
        report = find_unpairable_pair(2)
        assert not report.holds
        assert report.witnesses == []

    def test_witness_at_n5_replays(self):
        report = find_unpairable_pair(5)
        assert report.holds
        wit = report.witnesses[0]
        mu = matroid_from_json(wit["upper"])
        ml = matroid_from_json(wit["lower"])
        # both basis-level necessary conditions hold...
        assert all(mu.is_independent(b) for b in ml.bases)
        assert all(ml.is_spanning(b) for b in mu.bases)
        # ...yet no delta-matroid realizes the pair
        found, _ = constrained_realization(mu, ml)
        assert found is None
        assert len(wit["offending_circuit"]) == 2

    def test_out_of_range(self):
        with pytest.raises(InputError):
            find_unpairable_pair(6)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_graphic_pool_is_every_matroid_up_to_n3(self, n):
        pool = {m.bases.masks for m, _ in _graphic_pool(n, n + 1)}
        assert pool == {m.bases.masks for m in enumerate_matroids(n)}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scans_each_ordered_pool_pair_once(self, n, fresh_universes):
        pool = _graphic_pool(n, 3 if n >= 4 else n + 1)
        assert find_unpairable_pair(n).universe_size == len(pool) * (len(pool) - 1)
        assert _universe.cache_info().currsize == 0  # no shared universe was built
