import itertools
import os

import pytest

from deltamatroids import (
    InputError,
    Matroid,
    SearchReport,
    check_basis_axiom,
    default_ground,
    find_unpairable_pair,
    verify_property,
)
from deltamatroids.delta import DeltaMatroid, _decode_family, _delta_ok
from deltamatroids.rigidity import Multigraph, cycle_matroid
from deltamatroids.search import (
    _UNIVERSES,
    PROPERTY_IDS,
    _accepts,
    _augmentation_breaks,
    _chunks,
    _codes,
    _exchange_violation,
    _graphic_pool,
    _pool_size,
    constrained_realization,
    delta_codes,
    enumerate_delta_matroids,
    enumerate_matroids,
    matroid_codes,
    resolve_workers,
)
from deltamatroids.serialize import matroid_from_json


@pytest.fixture
def fresh_universes():
    """Start from no shared universe, and let none built under the test's
    patches outlive it."""
    _UNIVERSES.clear()
    yield
    _UNIVERSES.clear()


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

    def test_worker_count_does_not_change_codes(self, fresh_universes):
        one = matroid_codes(3, workers=1), delta_codes(3, workers=1)
        _UNIVERSES.clear()  # so the 4-worker build runs
        assert (matroid_codes(3, workers=4), delta_codes(3, workers=4)) == one

    @pytest.mark.parametrize("axiom", ["MB", "MB-def", "DF"])
    @pytest.mark.parametrize("n", range(5))
    def test_codes_equal_full_range_scan(self, axiom, n):
        # reference: every family code through the axiom, no minor pruning
        ref = [c for c in range(1, 1 << (1 << n)) if _accepts(axiom, _decode_family(c))]
        for w in (1, 8):
            assert _codes(axiom, n, w) == ref, (axiom, n, w)

    def test_df_n4_runs_the_axiom_on_a_fraction_of_codes(self, monkeypatch, fresh_universes):
        calls = []

        def counting(axiom, masks):
            calls.append(masks)
            return _accepts(axiom, masks)

        monkeypatch.setattr("deltamatroids.search._accepts", counting)
        assert len(_codes("DF", 4, 1)) == 5959
        assert len(calls) < 16384


class TestWorkers:
    def test_pool_never_exceeds_tasks_or_cpus(self):
        cpus = os.cpu_count() or 1
        assert _pool_size(10**9, 10**9) == cpus
        assert _pool_size(10**9, 3) == min(3, cpus)
        assert _pool_size(2, 10**9) == min(2, cpus)
        assert _pool_size(1, 10**9) == 1
        assert _pool_size(10**9, 0) == 0

    def test_chunk_count_capped(self):
        cap = max(8, 4 * (os.cpu_count() or 1))
        for size in (10**9, 65535, cap + 1):
            parts = _chunks(size, 10**9)
            assert len(parts) <= cap
            assert parts[0][0] == 0 and parts[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert len(_chunks(10**9, 10**9)) == cap
        assert len(_chunks(10**9, 8)) == 8
        assert _chunks(3, 10**9) == [(0, 1), (1, 2), (2, 3)]
        assert _chunks(0, 10**9) == []

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
    def test_bad_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("DM_WORKERS", value)
        with pytest.raises(InputError, match="must be a positive integer"):
            resolve_workers()

    @pytest.mark.parametrize("value", [0, -1, 1.5])
    @pytest.mark.parametrize(
        "call",
        [
            lambda w: matroid_codes(4, workers=w),
            lambda w: delta_codes(3, workers=w),
            lambda w: list(enumerate_matroids(2, workers=w)),
            lambda w: verify_property("uplow", 2, workers=w),
        ],
    )
    def test_bad_explicit_workers_rejected(self, value, call):
        # rejected whether or not the universe is already built
        for _ in range(2):
            with pytest.raises(InputError, match="must be a positive integer"):
                call(value)
        call(1)


class TestVerifyProperty:
    @pytest.mark.parametrize("pid", PROPERTY_IDS)
    def test_all_properties_hold_at_n3(self, pid):
        report = verify_property(pid, 3, workers=1)
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
        reports = [verify_property(pid, n, workers=1) for n in range(5)]
        assert [r.universe_size for r in reports] == sizes
        assert all(r.holds and r.witnesses == [] for r in reports)

    def test_mb_equicardinal_reports_unequal_family(self, monkeypatch, fresh_universes):
        # the universe comes from the definitional (MB) scan; let it wrongly
        # accept {{}, {a}} and the theorem check must name that family
        odd = (0b0, 0b1)

        def lenient(source, members, axiom):
            return None if tuple(source) == odd else _exchange_violation(source, members, axiom)

        monkeypatch.setattr("deltamatroids.search._exchange_violation", lenient)
        report = verify_property("mb-equicardinal", 1, workers=1)
        assert not report.holds
        assert report.universe_size == 3
        assert report.witnesses == [{"ground": ["a"], "members": [[], ["a"]]}]

    def test_unknown_property(self):
        with pytest.raises(InputError):
            verify_property("bogus-id", 3)

    def test_reports_byte_identical_across_workers(self, fresh_universes):
        for pid in ("uplow", "sufficiency-sandwich"):
            a = verify_property(pid, 3, workers=1)
            _UNIVERSES.clear()  # so the 4-worker build runs
            b = verify_property(pid, 3, workers=4)
            assert a.canonical_bytes() == b.canonical_bytes()

    def test_elapsed_excluded_from_canonical_form(self):
        r = SearchReport("x", 1, True, [], elapsed=1.23)
        assert b"elapsed" not in r.canonical_bytes()
        assert "elapsed" in r.to_json(include_elapsed=True)


class TestSharedUniverses:
    def test_reports_equal_cold_and_warm_in_either_order(self, fresh_universes):
        keys = [(pid, n) for pid in PROPERTY_IDS for n in range(5)]
        cold = {}
        for k in keys:
            _UNIVERSES.clear()
            cold[k] = verify_property(*k, workers=1).canonical_bytes()
        for order in (keys, keys[::-1]):
            _UNIVERSES.clear()
            for k in order:
                assert verify_property(*k, workers=1).canonical_bytes() == cold[k], k

    def test_second_df_sweep_builds_nothing(self, monkeypatch, fresh_universes):
        verify_property("uplow", 4, workers=1)
        accepts, inits = [], []
        real_init = DeltaMatroid.__init__

        def counting_accepts(axiom, masks):
            accepts.append(masks)
            return _accepts(axiom, masks)

        def counting_init(self, *args, **kwargs):
            inits.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr("deltamatroids.search._accepts", counting_accepts)
        monkeypatch.setattr(DeltaMatroid, "__init__", counting_init)
        report = verify_property("necessity-circuit-union", 4, workers=1)
        assert report.universe_size == 5959 and report.holds
        assert accepts == [] and inits == []

    def test_public_lists_are_fresh(self, fresh_universes):
        codes = delta_codes(2)
        codes.clear()
        assert len(delta_codes(2)) == 15
        assert [d.feasibles.masks for d in enumerate_delta_matroids(2)] == [
            _decode_family(c) for c in delta_codes(2)
        ]


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
