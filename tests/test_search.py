import copy
import itertools
import random

import pytest

from deltamatroids import (
    InputError,
    Matroid,
    SearchReport,
    SetFamily,
    default_ground,
    find_unpairable_pair,
    verify_property,
)
from deltamatroids import search
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
from deltamatroids.core import (
    _code_layers,
    _complement,
    _decode_family,
    _exchange_failures,
    _exchange_ok,
    _exchange_witness,
    _indicator,
    _sizes,
    _twists,
)
from deltamatroids.rigidity import _count_sparse
from deltamatroids.search import (
    PROPERTY_IDS,
    _augmentation_breaks,
    _by_pair,
    _uplow_cases,
    _codes,
    _extend,
    _layers,
    _matroids,
    _pair_scan,
    _pair_witness,
    constrained_realization,
    delta_codes,
    enumerate_delta_matroids,
    enumerate_matroids,
    matroid_codes,
)
from deltamatroids.serialize import delta_to_json, matroid_from_json, matroid_to_json


def _clear_universes():
    _codes.cache_clear()
    _matroids.cache_clear()
    _layers.cache_clear()


@pytest.fixture
def fresh_universes():
    """Start from no shared universe, and let none built under the test's
    patches outlive it."""
    _clear_universes()
    yield
    _clear_universes()


class TestEnumeration:
    def test_matroids_n1(self):
        fams = [m.bases.member_labels() for m in enumerate_matroids(1)]
        assert fams == [[[]], [["a"]]]

    def test_counts_small(self):
        assert [len(matroid_codes(n)) for n in range(4)] == [1, 2, 5, 16]
        assert [len(delta_codes(n)) for n in range(4)] == [1, 3, 15, 155]

    def test_emitted_matroids_recertify(self):
        for m in enumerate_matroids(3):
            assert isinstance(Matroid.certify(m.bases), Matroid)

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
        ref = [c for c in range(1, 1 << (1 << n)) if _exchange_ok(c, axiom)]
        assert (matroid_codes(n) if axiom == "MB" else list(_codes(n))) == ref, (axiom, n)

    def test_df_n4_runs_the_axiom_on_a_fraction_of_codes(self, monkeypatch, fresh_universes):
        calls = []

        def counting(source, members, axiom):
            calls.append(source)
            return _exchange_failures(source, members, axiom)

        monkeypatch.setattr("deltamatroids.core._exchange_failures", counting)
        assert len(_codes(4)) == 5959
        assert len(calls) == 912  # one kernel call per twist orbit of the 11,612 candidates
        calls.clear()
        assert len(matroid_codes(4)) == 68
        assert len(calls) == 0  # the matroids are extended, not checked

    def test_level_grows_from_the_cached_level_below(self, monkeypatch, fresh_universes):
        # n = 4 pairs the codes of the cached n = 3 and checks only its own
        # candidates, and the matroids extend theirs with no check; every
        # level built on the way stays cached
        calls = []

        def counting(source, members, axiom):
            calls.append(source)
            return _exchange_failures(source, members, axiom)

        monkeypatch.setattr("deltamatroids.core._exchange_failures", counting)
        for build, fresh in ((_codes, 859), (_matroids, 0)):
            build(3)
            calls.clear()
            build(4)
            assert len(calls) == fresh, build
        assert _codes.cache_info().currsize == _matroids.cache_info().currsize == 5  # n = 0..4


def _codes_by_every_candidate(axiom, n):
    """The level build that checks every candidate: a | b << 2^(n-1) for a, b
    in the level below and 0, whose deletion and contraction of element n - 2
    are in that list too, one exchange verdict per candidate."""
    if n == 0:
        return (1,)
    prev = (0, *_codes_by_every_candidate(axiom, n - 1))
    half = 1 << (n - 1)
    q, known = half >> 1, set(prev)
    low = (1 << q) - 1
    return tuple(
        c
        for b in prev
        for a in prev
        if (c := a | b << half)
        and (a & low) | (b & low) << q in known
        and (a >> q) | (b >> q) << q in known
        and _exchange_ok(c, axiom)
    )


class TestLevelBuild:
    @pytest.mark.parametrize("axiom", ["MB", "DF"])
    def test_codes_equal_the_every_candidate_build(self, axiom, fresh_universes):
        for n in range(5):
            codes = tuple(matroid_codes(n)) if axiom == "MB" else _codes(n)
            assert codes == _codes_by_every_candidate(axiom, n), (axiom, n)

    def test_extension_to_n5_equals_the_every_candidate_build(self):
        codes = tuple(m._bases for m in _extend(_matroids(4), 5))
        assert codes == _codes_by_every_candidate("MB", 5)
        assert len(codes) == 406  # OEIS A058673

    def test_df_level_twists_each_candidate_it_decides(self, monkeypatch, fresh_universes):
        # with level 3 built, each orbit of level 4 is its candidate's own twists,
        # taken once per verdict and just before the verdict on that candidate
        _codes(3)
        calls = []

        def twisting(code, n):
            calls.append(("twists", code, n))
            return _twists(code, n)

        def deciding(code, axiom):
            calls.append(("verdict", code, axiom))
            return _exchange_ok(code, axiom)

        monkeypatch.setattr(search, "_twists", twisting)
        monkeypatch.setattr(search, "_exchange_ok", deciding)
        _codes(4)
        twisted, decided = calls[::2], calls[1::2]
        assert [("twists", c, 4) for _, c, _ in decided] == twisted
        assert [("verdict", c, "DF") for _, c, _ in twisted] == decided
        assert len(twisted) == len(decided) == 859


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
            verdicts = {_exchange_ok(t, "DF") for t in _twists(code, n)}
            assert len(verdicts) == 1, (code, n)

    def test_orbits_are_twists_by_every_subset(self):
        # row S of the twists is the family twisted by S, for every S
        for k in range(5):
            assert _twists(1, k) == tuple(1 << s for s in range(1 << k))  # row S is {S}
        for code, n in self._codes_to_check():
            rows = _twists(code, n)
            family = _decode_family(code)
            assert len(rows) == 1 << n and (1 << n) % len(set(rows)) == 0, (code, n)
            for s, row in enumerate(rows):
                assert row == sum(1 << (f ^ s) for f in family), (code, n, s)


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
        # the universe comes from the extension, which runs no check; let it
        # wrongly add {{}, {a}} and the theorem check must name that family
        odd = _code_of((0b0, 0b1))
        real = search._extend

        def lenient(prev, n):
            ms = real(prev, n)
            return (*ms, Matroid._trusted(ms[0].ground, odd)) if n == 1 else ms

        monkeypatch.setattr(search, "_extend", lenient)
        report = verify_property("mb-equicardinal", 1)
        assert not report.holds
        assert report.universe_size == 3
        assert report.witnesses == [{"ground": ["a"], "members": [[], ["a"]]}]

    def test_unknown_property(self):
        with pytest.raises(InputError):
            verify_property("bogus-id", 3)

    def test_negative_size_names_the_range(self):
        with pytest.raises(InputError, match="0 <= n <= 4"):
            verify_property("uplow", -1)

    def test_elapsed_excluded_from_canonical_form(self):
        r = SearchReport("x", 1, True, [], elapsed=1.23)
        assert b"elapsed" not in r.canonical_bytes()
        assert "elapsed" not in r.to_json() and r.elapsed == 1.23


class TestSharedUniverses:
    def test_reports_equal_cold_and_warm_in_either_order(self, fresh_universes):
        keys = [(pid, n) for pid in PROPERTY_IDS for n in range(5)]
        cold = {}
        for k in keys:
            _clear_universes()
            cold[k] = verify_property(*k).canonical_bytes()
        for order in (keys, keys[::-1]):
            _clear_universes()
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

        monkeypatch.setattr("deltamatroids.core._exchange_failures", counting_kernel)
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
            mats = {id(m) for m in _matroids(n)}
            for d in enumerate_delta_matroids(n):
                fresh = DeltaMatroid._trusted(d.ground, d._feasibles)
                assert id(d.upper) in mats and id(d.lower) in mats
                assert d.upper == fresh.upper and d.lower == fresh.lower
                seen += 1
        assert seen == 6133

    def test_layer_missing_from_mb_universe_raises(self, monkeypatch, fresh_universes):
        real = search._extend

        def strict(prev, n):  # the extension wrongly drops U(1,2)
            return tuple(m for m in real(prev, n) if m._bases != _code_of((0b01, 0b10)))

        monkeypatch.setattr(search, "_extend", strict)
        # both layers of {{a}, {b}} are U(1,2): the upper one is named first
        with pytest.raises(RuntimeError) as info:
            verify_property("uplow", 2)
        assert str(info.value) == "upper layer of DeltaMatroid(feasibles={{a}, {b}}) is missing from the (MB) universe"

    def test_lower_layer_missing_from_mb_universe_raises(self, monkeypatch, fresh_universes):
        # every upper layer is in the (MB) universe; the empty family, read as a lower layer, is not
        monkeypatch.setattr(search, "_code_layers", lambda code, n: (0, _code_layers(code, n)[1]))
        with pytest.raises(RuntimeError) as info:
            verify_property("uplow", 2)
        assert str(info.value) == "lower layer of DeltaMatroid(feasibles={{}}) is missing from the (MB) universe"

    def test_uplow_matches_reference_on_every_family(self, monkeypatch):
        # (DF) at n = 4, then any nonempty family up to n = 3, delta-matroid or
        # not, through the sweep's per-pair value and per-code test: each
        # family is read against the pair of its own least and greatest layers
        ref = [w for d in enumerate_delta_matroids(4) for w in _uplow_reference(d)]
        assert verify_property("uplow", 4).to_json() == _report_json("uplow", ref)

        def every_family(n, decide):
            g, codes = default_ground(n), range(1, 1 << (1 << n))
            layers = [_code_layers(c, n) for c in codes]
            return zip(codes, [decide(Matroid._trusted(g, upper), Matroid._trusted(g, lower)) for lower, upper in layers])

        monkeypatch.setattr(search, "_by_pair", every_family)
        outcomes = set()
        for n in range(4):
            g = default_ground(n)
            ref = [w for code in range(1, 1 << (1 << n)) for w in _uplow_reference(DeltaMatroid._trusted(g, code))]
            assert list(_uplow_cases(n)) == ref, n
            outcomes |= {w is None for w in ref}
        assert outcomes == {True, False}

    def test_code_helpers_match_the_object_operations(self):
        # every nonempty family up to n = 3, delta-matroid or not, then (DF) at n = 4
        cases = [(n, code) for n in range(4) for code in range(1, 1 << (1 << n))]
        cases += [(4, code) for code in _codes(4)]
        for n, code in cases:
            masks, full = _decode_family(code), (1 << n) - 1
            assert _complement(code, n) == _code_of({full ^ f for f in masks}), (n, code)
            assert _code_layers(code, n) == tuple(map(_code_of, _size_layers(masks))), (n, code)
        assert len(cases) == 274 + 5959

    def test_per_pair_work_runs_once_per_pair(self, monkeypatch, fresh_universes):
        calls = {"is_pairable": [], "_fmax_pair": []}

        def count(name):
            real = getattr(search, name)

            def counting(*args):
                calls[name].append(args)
                return real(*args)

            monkeypatch.setattr(search, name, counting)

        count("is_pairable")
        count("_fmax_pair")
        assert verify_property("necessity-circuit-union", 4).universe_size == 5959
        pairs = [(mu.bases.masks, ml.bases.masks) for mu, ml in calls["is_pairable"]]
        assert len(pairs) == len(set(pairs)) == 558
        assert verify_property("fmax-maximal", 4).holds
        assert [(mu.bases.masks, ml.bases.masks) for mu, ml in calls["_fmax_pair"]] == pairs

    def test_df_universe_builds_no_delta_matroid_or_family(self, monkeypatch, fresh_universes):
        # only matroids are kept as objects: each pass of the enumeration makes
        # its delta-matroids afresh from their codes and decodes no family
        _matroids(4)
        _layers(4)
        made = []

        def count(cls, name):
            real = getattr(cls, name)

            def counting(self, *args, **kwargs):
                made.append(cls.__name__)
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counting)

        count(DeltaMatroid, "__init__")
        count(SetFamily, "__post_init__")
        for _ in range(2):
            made.clear()
            assert sum(1 for _ in enumerate_delta_matroids(4)) == 5959
            assert made == ["DeltaMatroid"] * 5959
        assert _matroids.cache_info().currsize == 5  # the matroids at n = 0..4

    def test_sweep_work_is_pinned_at_n4(self, monkeypatch, fresh_universes):
        # on built universes every sweep reads codes and the matroids'
        # indicators, mb-equicardinal included: only dual-exchange builds
        # objects, one dual per matroid from its complemented basis code, and
        # fmax-maximal runs one exchange verdict per pair with a uniform side,
        # as both its variants read the pair's sandwich; sufficiency-sandwich
        # runs one per pairable pair and refutes every other pair meeting both
        # basis conditions by one replay pass, so no candidate is exhausted
        _matroids(4)
        _layers(4)
        verdicts, built, passes, replays, pair_passes = [], [], [], [], []

        def counting_delta_ok(code):
            verdicts.append(code)
            return _delta_ok(code)

        def counting_failures(*args):
            first = next(_exchange_failures(*args), None)
            replays.append("refuted" if first else "exhausted")
            return iter([first] if first else [])

        def counting_count_sparse(*args):
            passes.append(args)
            return _count_sparse(*args)

        def counting_by_pair(*args):
            pair_passes.append(args)
            return _by_pair(*args)

        def count(cls, name):
            real = getattr(cls, name)

            def counting(self, *args, **kwargs):
                built.append(cls.__name__)
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counting)

        monkeypatch.setattr("deltamatroids.search._delta_ok", counting_delta_ok)
        monkeypatch.setattr("deltamatroids.rigidity._count_sparse", counting_count_sparse)
        monkeypatch.setattr("deltamatroids.search._exchange_failures", counting_failures)
        monkeypatch.setattr("deltamatroids.search._by_pair", counting_by_pair)
        count(SetFamily, "__post_init__")
        count(DeltaMatroid, "__init__")
        count(Matroid, "__init__")
        calls, builds, passes_by_pid, pair_passes_by_pid = [], [], [], []
        for pid in PROPERTY_IDS:
            verdicts.clear()
            built.clear()
            replays.clear()
            pair_passes.clear()
            assert verify_property(pid, 4).holds
            calls.append(len(verdicts))
            builds.append(sorted(built))
            passes_by_pid.append(sorted(replays))
            pair_passes_by_pid.append(len(pair_passes))
        assert calls == [0, 68, 68, 0, 0, 558, 0, 307]
        # one per-pair pass for uplow, necessity and fmax; dual-exchange reads the layer index itself
        assert pair_passes_by_pid == [0, 0, 0, 1, 1, 0, 0, 1]
        sufficiency = PROPERTY_IDS.index("sufficiency-sandwich")
        assert passes_by_pid[sufficiency] == ["refuted"] * 192  # and no "exhausted"
        assert passes_by_pid[:sufficiency] + passes_by_pid[sufficiency + 1 :] == [[]] * 7
        dual_exchange = PROPERTY_IDS.index("dual-exchange")
        assert builds[dual_exchange] == ["Matroid"] * 68  # Matroid.dual, on purpose
        assert builds[:dual_exchange] + builds[dual_exchange + 1 :] == [[]] * 7
        verdicts.clear()
        replays.clear()
        assert find_unpairable_pair(5).holds
        assert len(verdicts) == 0  # its one pair tried is refuted by a replay pass
        assert replays == ["refuted"]
        assert passes == []  # the hunt scans matroids and builds no graph

    def test_universes_and_sweeps_pack_no_masks(self, monkeypatch, fresh_universes):
        # the kernel reads family codes, so building every universe up to
        # n = 4 and running every sweep at n = 4 packs no mask collection
        packs = []

        def counting_indicator(masks, n):
            packs.append(n)
            return _indicator(masks, n)

        monkeypatch.setattr("deltamatroids.matroids._indicator", counting_indicator)
        monkeypatch.setattr("deltamatroids.delta._indicator", counting_indicator)
        _delta_ok.cache_clear()  # so that every verdict runs the kernel
        sizes = [len(matroid_codes(n)) for n in range(5)] + [len(_codes(n)) for n in range(5)]
        assert sizes == [1, 2, 5, 16, 68, 1, 3, 15, 155, 5959]
        for pid in PROPERTY_IDS:
            assert verify_property(pid, 4).holds, pid
        assert _delta_ok.cache_info().misses > 0
        assert packs == []

    def test_fmax_matches_reference_when_perturbed(self, monkeypatch, fresh_universes):
        # a verdict that splits pairs, and a pair family that misses its
        # greatest set strictly between the ranks, which only some objects of
        # a pair have: the per-pair memo must still give per-object answers
        def delta_ok(code):
            return _delta_ok(code) and code.bit_count() % 5 != 0

        def breaks(*args):  # the family above is never maximal; judge the rest
            return True

        def lossy_family(d):
            fam = construct_sandwich(d.upper, d.lower).masks
            mid = [m for m in fam if d.lower.rank < m.bit_count() < d.upper.rank]
            return SetFamily(d.ground, tuple(m for m in fam if mid[-1:] != [m]))

        def lossy_pair(upper, lower):
            # the same pair with the upper matroid's independents losing that
            # set, so that its sandwich, read by the real _fmax_pair, does too
            n, lo, hi = upper.ground.size, lower.rank, upper.rank
            mid = upper._indep & lower._spanning & sum(_sizes(n)[lo + 1 : hi])
            lossy = copy.copy(upper)
            lossy._indep = upper._indep & ~((1 << mid.bit_length()) >> 1)  # mid's top bit, if any
            out = real_fmax_pair(lossy, lower)
            families[upper._bases, lower._bases] = {out[1]} if out[0] else set()
            return out

        real_fmax_pair, families = search._fmax_pair, {}
        monkeypatch.setattr("deltamatroids.search._delta_ok", delta_ok)
        monkeypatch.setattr("deltamatroids.search._augmentation_breaks", breaks)
        monkeypatch.setattr(search, "_fmax_pair", lossy_pair)
        for n in range(1, 5):
            ref = [
                w
                for d in enumerate_delta_matroids(n)
                for w in _fmax_reference(d, delta_ok, breaks, lossy_family, lossy_family)
            ]
            assert verify_property("fmax-maximal", n).to_json() == _report_json("fmax-maximal", ref)
        assert any(w is None for w in ref) and any(w is not None for w in ref)
        assert any(
            d._feasibles & ~fam
            for d in enumerate_delta_matroids(4)
            for fam in families[d.upper._bases, d.lower._bases]
        )

    def test_realization_sweeps_match_references_when_perturbed(self, monkeypatch, fresh_universes):
        # a verdict flipped on some families, and families that lose their
        # least (independents) or greatest member (spanning sets, sandwich)
        # for some matroids or pairs before the real _realizes reads them, so
        # that both the verdict and the layer comparison decide some cases;
        # the replay pass loses its triple on some pairs, so that the flipped
        # verdict reaches their exhaust
        def delta_ok(code):
            return _delta_ok(code) != (code.bit_count() % 5 == 0)

        def replay(source, members, axiom):
            return iter(()) if source.bit_count() % 2 else _exchange_failures(source, members, axiom)

        def lossy(masks, end):
            if len(masks) % 3:
                return masks
            return masks[1:] if end == 0 else masks[:-1]

        def lossy_realizes(end):
            def realizes(code, upper, lower, n):
                return real_realizes(_code_of(lossy(_decode_family(code), end)), upper, lower, n)

            return realizes

        def sandwich(mu, ml):
            return SetFamily(mu.ground, lossy(construct_sandwich(mu, ml).masks, -1))

        real_realizes = search._realizes
        ends = {"independents-are-delta": 0, "spanning-are-delta": -1, "sufficiency-sandwich": -1}
        monkeypatch.setattr("deltamatroids.search._delta_ok", delta_ok)
        monkeypatch.setattr("deltamatroids.search._exchange_failures", replay)
        refs = {}
        for n in range(5):
            ms = list(enumerate_matroids(n))
            refs = {
                "independents-are-delta": [_independents_reference(m, delta_ok, lambda f: lossy(f, 0)) for m in ms],
                "spanning-are-delta": [_spanning_reference(m, delta_ok, lambda f: lossy(f, -1)) for m in ms],
                "sufficiency-sandwich": [
                    _sufficiency_reference(mu, ml, delta_ok, sandwich, replay) for mu in ms for ml in ms
                ],
            }
            for pid, ref in refs.items():
                monkeypatch.setattr(search, "_realizes", lossy_realizes(ends[pid]))
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
            _clear_universes()
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
        # match the duals: only the complement's own (DF) verdict can fail;
        # the sweep twists codes and the reference complements objects, so
        # both lose the member by one rule
        real_complement_dual = DeltaMatroid.complement_dual

        def lossy_masks(masks):
            sizes = [m.bit_count() for m in masks]
            mid = [m for m in masks if min(sizes) < m.bit_count() < max(sizes)]
            return [m for m in masks if m not in mid[:1]]

        def lossy(d):
            masks = lossy_masks(real_complement_dual(d).feasibles.masks)
            return DeltaMatroid._trusted(d.ground, _indicator(masks, d.ground.size))

        def lossy_code(code, n):
            return sum(1 << m for m in lossy_masks(_decode_family(_complement(code, n))))

        monkeypatch.setattr(DeltaMatroid, "complement_dual", lossy)
        monkeypatch.setattr("deltamatroids.search._complement", lossy_code)
        for n in (3, 4):
            ref = [w for d in enumerate_delta_matroids(n) for w in _dual_exchange_reference(d)]
            report = verify_property("dual-exchange", n)
            assert not report.holds and report.to_json() == _report_json("dual-exchange", ref), n

    def test_dual_exchange_makes_a_dual_per_matroid(self, monkeypatch, fresh_universes):
        _matroids(4)
        _layers(4)
        made = []
        real_init = Matroid.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Matroid, "__init__", counting_init)
        assert verify_property("dual-exchange", 4).holds
        assert 0 < len(made) <= 68

    def test_dual_exchange_looks_up_the_dual_pair(self, monkeypatch, fresh_universes):
        # with the complement the identity every code stays in the universe,
        # but its layers are the duals only on self-dual pairs: the sweep must
        # look the complement up among the codes of the dual pair, not of the
        # whole universe
        monkeypatch.setattr("deltamatroids.search._complement", lambda code, n: code)
        monkeypatch.setattr(DeltaMatroid, "complement_dual", lambda self: self)
        outcomes = set()
        for n in range(5):
            ref = [w for d in enumerate_delta_matroids(n) for w in _dual_exchange_reference(d)]
            assert verify_property("dual-exchange", n).to_json() == _report_json("dual-exchange", ref), n
            outcomes |= {w is None for w in ref}
        assert outcomes == {True, False}

    def test_sweeps_build_no_delta_matroid(self, monkeypatch, fresh_universes):
        # from no universe, every sweep at n = 4 reads codes through the layer
        # index: no delta-matroid is made, and only matroids are kept as objects
        made = []
        real_init = DeltaMatroid.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DeltaMatroid, "__init__", counting_init)
        for pid in PROPERTY_IDS:
            assert verify_property(pid, 4).holds, pid
        assert made == []
        assert _matroids.cache_info().currsize == 5  # the matroids at n = 0..4
        assert len(list(enumerate_delta_matroids(4))) == len(made) == 5959

    def test_out_of_range_n_raises_and_caches_nothing(self, fresh_universes):
        for pid in PROPERTY_IDS:
            for n in (-1, 5):
                with pytest.raises(InputError):
                    verify_property(pid, n)
                sizes = [f.cache_info().currsize for f in (_codes, _matroids, _layers)]
                assert sizes == [0, 0, 0], (pid, n)

    def test_patched_kernel_leaks_into_no_memo(self, monkeypatch, fresh_universes):
        cold = {pid: verify_property(pid, 3).canonical_bytes() for pid in PROPERTY_IDS}
        _clear_universes()
        monkeypatch.setattr("deltamatroids.search._delta_ok", lambda code: False)
        monkeypatch.setattr(Matroid, "dual", lambda self: self)
        for pid in ("fmax-maximal", "dual-exchange"):
            assert not verify_property(pid, 3).holds
        monkeypatch.undo()
        _clear_universes()
        for pid in PROPERTY_IDS:
            assert verify_property(pid, 3).canonical_bytes() == cold[pid], pid

    def test_patched_sweep_leaves_no_trace(self, monkeypatch, fresh_universes):
        # each sweep's memo dies with it, so results a patched sweep computed
        # reach no later sweep, though the universes stay built
        cold = {pid: verify_property(pid, 3).canonical_bytes() for pid in PROPERTY_IDS}
        monkeypatch.setattr("deltamatroids.search._delta_ok", lambda code: False)
        monkeypatch.setattr(Matroid, "dual", lambda self: self)
        for pid in ("fmax-maximal", "dual-exchange"):
            assert not verify_property(pid, 3).holds
        monkeypatch.undo()
        for pid in PROPERTY_IDS:
            assert verify_property(pid, 3).canonical_bytes() == cold[pid], pid


def _code_of(masks):
    return sum(1 << m for m in masks)


def _report_json(pid, cases):
    witnesses = [w for w in cases if w is not None]
    return {"property_id": pid, "universe_size": len(cases), "holds": not witnesses, "witnesses": witnesses}


def _dual_exchange_reference(d):
    ds = d.complement_dual()
    ok = _exchange_ok(ds._feasibles, "DF") and ds.upper == d.lower.dual() and ds.lower == d.upper.dual()
    yield None if ok else delta_to_json(d)


def _necessity_reference(d, pairable):
    rep = pairable(d.upper, d.lower)
    yield None if rep.pairable else {**delta_to_json(d), "offending_circuit": list(rep.offending_circuit.labels)}


def _independents_reference(m, delta_ok, perturb):
    code = _indicator(perturb(m.independents().masks), m.ground.size)
    d = DeltaMatroid._trusted(m.ground, code)
    ok = delta_ok(code) and d.upper == m and d.lower.rank == 0
    return None if ok else matroid_to_json(m)


def _spanning_reference(m, delta_ok, perturb):
    code = _indicator(perturb(m.spanning_sets().masks), m.ground.size)
    d = DeltaMatroid._trusted(m.ground, code)
    ok = delta_ok(code) and d.lower == m and d.upper.rank == m.ground.size
    return None if ok else matroid_to_json(m)


def _sufficiency_reference(mu, ml, delta_ok, sandwich, replay=_exchange_failures):
    """A pairable pair's sandwich, else the exhaust of the subfamilies unless
    a replay pass finds forced sets and a pivot with no partner in the sandwich."""
    pair = {"upper": matroid_to_json(mu), "lower": matroid_to_json(ml)}
    if is_pairable(mu, ml).pairable:
        code = _indicator(sandwich(mu, ml).masks, mu.ground.size)
        d = DeltaMatroid._trusted(mu.ground, code)
        ok = delta_ok(code) and d.upper == mu and d.lower == ml
        return None if ok else {"kind": "sandwich-failed", **pair}
    forced = _code_of(set(mu.bases.masks) | set(ml.bases.masks))
    inside = _code_of(construct_sandwich(mu, ml).masks)
    if not forced & ~inside and next(replay(forced, inside, "DF"), None) is not None:
        return None
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
        if delta_ok(_code_of(masks)):
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
        code = _indicator(fam.masks, d.ground.size)
        ok = delta_ok(code) and set(d.feasibles.masks) <= set(fam.masks)
        if ok:
            dm = DeltaMatroid._trusted(d.ground, code)
            ok = dm.upper == d.upper and dm.lower == d.lower and breaks(dm)
        yield None if ok else {**delta_to_json(d), "variant": variant}


def test_fmax_builders_return_the_sweeps_pair_family():
    # fmax-maximal reads the sandwich upper._indep & lower._spanning for both
    # variants; the public builders return it on every row their side allows
    checked = {fmax_upper_uniform: 0, fmax_lower_uniform: 0}
    for n in range(5):
        for d in enumerate_delta_matroids(n):
            fam = d.upper._indep & d.lower._spanning
            for build, side in ((fmax_upper_uniform, d.upper), (fmax_lower_uniform, d.lower)):
                if side.is_uniform():
                    assert _indicator(build(d).masks, n) == fam, (build.__name__, d)
                    checked[build] += 1
    assert list(checked.values()) == [4157, 4157]  # of the 6,133 rows at n <= 4


def _size_layers(masks):
    """The least-size and greatest-size members of a nonempty mask tuple, in its order."""
    least, most = min(m.bit_count() for m in masks), max(m.bit_count() for m in masks)
    return tuple(m for m in masks if m.bit_count() == least), tuple(m for m in masks if m.bit_count() == most)


def _realizes_by_masks(masks, upper, lower):
    """The definition on ascending mask tuples: a delta-matroid whose least-size
    and greatest-size members are exactly lower and upper."""
    return _delta_ok(_code_of(masks)) and _size_layers(masks) == (lower, upper)


def test_realizes_on_codes_matches_the_mask_definition():
    # every nonempty family up to n = 3, delta-matroid or not, then (DF) at
    # n = 4; each with its own layers, then with the empty set's membership
    # in the lower layer flipped, which makes that layer wrong
    cases = [(n, code) for n in range(4) for code in range(1, 1 << (1 << n))]
    cases += [(4, code) for code in _codes(4)]
    outcomes = set()
    for n, code in cases:
        masks = _decode_family(code)
        lower, upper = map(_code_of, _size_layers(masks))
        for lo in (lower, lower ^ 1):
            got = search._realizes(code, upper, lo, n)
            assert got == _realizes_by_masks(masks, _decode_family(upper), _decode_family(lo)), (n, code, lo)
            outcomes.add((lo == lower, got))
    assert len(cases) == 274 + 5959
    assert outcomes == {(True, True), (True, False), (False, False)}


def _augmentation_breaks_by_definition(d):
    have = set(d.feasibles.masks)
    for extra in d.ground.all_masks():
        if extra in have:
            continue
        aug = _indicator(have | {extra}, d.ground.size)
        if _delta_ok(aug):
            da = DeltaMatroid._trusted(d.ground, aug)
            if da.upper == d.upper and da.lower == d.lower:
                return False
    return True


def test_augmentation_window_matches_definition():
    seen = 0
    for n in range(5):
        for d in enumerate_delta_matroids(n):
            code, lo, hi = _code_of(d.feasibles.masks), d.lower.rank, d.upper.rank
            assert _augmentation_breaks(code, lo, hi, d.ground.size) == _augmentation_breaks_by_definition(d), d
            seen += 1
    assert seen == 6133


class TestConstrainedRealization:
    def test_matches_subfamily_exhaust_on_every_pair(self, monkeypatch):
        # family and count as the exhaust of every candidate, on all 4,624
        # ordered pairs at n = 4 and every pair below; a replay pass refutes
        # each pair no candidate realizes, 198 of them, so none is exhausted
        replays = []

        def counting(*args):
            first = next(_exchange_failures(*args), None)
            replays.append((n, first is not None))
            return iter([first] if first else [])

        monkeypatch.setattr("deltamatroids.search._exchange_failures", counting)
        outcomes, refuted = set(), []
        for n in range(5):
            ms = list(enumerate_matroids(n))
            for mu, ml in itertools.product(ms, repeat=2):
                found, tried = constrained_realization(mu, ml)
                assert (found, tried) == _realization_by_subfamilies(mu, ml), (mu, ml)
                outcomes.add("none" if not tried else "unrealized" if found is None else "found")
                if tried and found is None:
                    refuted.append(n)
        assert outcomes == {"none", "unrealized", "found"}
        assert refuted == [3] * 6 + [4] * 192 == [k for k, hit in replays if hit]

    def test_hunt_witness_keeps_its_exhaust_count(self):
        wit = find_unpairable_pair(5).witnesses[0]
        mu, ml = matroid_from_json(wit["upper"]), matroid_from_json(wit["lower"])
        assert (None, wit["candidates_exhausted"]) == _realization_by_subfamilies(mu, ml)

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

    def test_n5_scan_before_its_witness_has_the_readme_counts(self):
        # the pairs the hunt passes over: quotient pairs (a matroid with
        # itself among them) and pairs failing a basis condition
        quotients = selves = failing = 0
        for i, j, quotient, meets in _pair_scan(_extend(_matroids(4), 5)):
            if meets and not quotient:
                break
            selves += quotient and i == j
            quotients += quotient and i != j
            failing += not meets
        assert (quotients, selves, failing) == (17, 10, 4036)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scans_each_ordered_pool_pair_once(self, n, fresh_universes):
        report = find_unpairable_pair(n)
        # the hunt builds no delta-matroid universe, and caches the matroids below n only
        assert _codes.cache_info().currsize == _layers.cache_info().currsize == 0
        assert _matroids.cache_info().currsize == n
        ms = _extend(_matroids(n - 1), n)
        assert report.universe_size == len(ms) * (len(ms) - 1)
        assert n == 5 or ms == _matroids(n)  # every matroid on n elements


def _is_open(mu, ml):
    """Whether ml is no quotient of mu yet every basis of either lies in their sandwich."""
    inside = all(mu.is_independent(b) for b in ml.bases) and all(ml.is_spanning(b) for b in mu.bases)
    return inside and not is_pairable(mu, ml).pairable


def _pair_witness_reference(mu, ml):
    """The hunt's per-pair test without its two mask ANDs: the pairability
    report first, then the exhaust of every pair it calls unpairable."""
    rep = is_pairable(mu, ml)
    if rep.pairable:
        return None
    found, tried = constrained_realization(mu, ml)
    if found is not None or not tried:  # realizable, or a basis condition fails
        return None
    wit = {
        "upper": matroid_to_json(mu),
        "lower": matroid_to_json(ml),
        "offending_circuit": list(rep.offending_circuit.labels),
        "candidates_exhausted": tried,
    }
    triple = _exchange_witness(mu._bases | ml._bases, mu._indep & ml._spanning, "DF")
    if triple is not None:
        f1, f2, xb = triple
        g = mu.ground
        wit["replay"] = {
            "first": list(g.labels_of(f1)),
            "second": list(g.labels_of(f2)),
            "pivot": g.labels[xb.bit_length() - 1],
        }
    return wit


class TestPairScans:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_pair_witness_matches_the_reference(self, n):
        # every ordered matroid pair up to n = 4; at n = 5 the pairs the hunt
        # scans, up to and including its witness.  _pair_witness takes only
        # the pairs the scan lets through, and the reference is None on the rest
        pairs = itertools.permutations(_extend(_matroids(n - 1), n), 2)
        if n == 5:
            pairs = itertools.islice(pairs, 4054)
        found = []
        for k, (upper, lower) in enumerate(pairs):
            wit = _pair_witness(upper, lower) if _is_open(upper, lower) else None
            assert wit == _pair_witness_reference(upper, lower), (n, k)
            if wit is not None:
                found.append(k)
        assert (found == [4053]) if n == 5 else (bool(found) == (n >= 3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_hunt_tries_exactly_the_open_pairs_up_to_its_witness(self, n, monkeypatch):
        # in permutation order, the matroid pairs that are no quotient pair yet
        # meet both basis conditions, up to and including the first witness
        tried = []

        def recording(upper, lower):
            tried.append((upper._bases, lower._bases))
            return real(upper, lower)

        real = search._pair_witness
        monkeypatch.setattr(search, "_pair_witness", recording)
        report = find_unpairable_pair(n)
        expected, wit = [], None
        for upper, lower in itertools.permutations(_extend(_matroids(n - 1), n), 2):
            if wit is None and _is_open(upper, lower):
                expected.append((upper._bases, lower._bases))
                wit = _pair_witness_reference(upper, lower)
        assert tried == expected
        assert report.witnesses == ([] if wit is None else [wit])
        assert len(tried) == {1: 0, 2: 0, 3: 1, 4: 1, 5: 1}[n]

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"is_pairable": [], "constrained_realization": []}
        for name in calls:
            real = getattr(search, name)

            def counting(*args, _real=real, _name=name):
                calls[_name].append(args)
                return _real(*args)

            monkeypatch.setattr(search, name, counting)
        return calls

    def test_sufficiency_sweep_exhausts_only_pairs_meeting_both_basis_conditions(
        self, monkeypatch, fresh_universes
    ):
        ms = list(enumerate_matroids(4))
        # the pairable pairs are those some delta-matroid realizes
        realized = {(d.upper.bases.masks, d.lower.bases.masks) for d in enumerate_delta_matroids(4)}
        pairable, failing, rest = [], [], []
        for mu, ml in itertools.product(ms, repeat=2):
            if (mu.bases.masks, ml.bases.masks) in realized:
                pairable.append((mu, ml))
            elif not (
                all(mu.is_independent(b) for b in ml.bases) and all(ml.is_spanning(b) for b in mu.bases)
            ):
                failing.append((mu, ml))
            else:
                rest.append((mu, ml))
        assert (len(pairable), len(failing), len(rest)) == (558, 3874, 192)
        calls = self._count_calls(monkeypatch)
        report = verify_property("sufficiency-sandwich", 4)
        assert report.holds and report.universe_size == 4624
        assert calls["is_pairable"] == []
        assert calls["constrained_realization"] == rest

    def test_hunt_builds_one_report_and_one_exhaust_at_n5(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        report = find_unpairable_pair(5)
        assert report.holds
        assert len(calls["is_pairable"]) == len(calls["constrained_realization"]) == 1
        ((mu, ml),) = calls["constrained_realization"]
        assert report.witnesses[0]["upper"] == matroid_to_json(mu)
        assert report.witnesses[0]["lower"] == matroid_to_json(ml)
