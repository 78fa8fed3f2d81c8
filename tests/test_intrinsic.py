import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from secexp.dists import (
    Alphabet,
    SizeLimitError,
    SubDist,
    d1_uniformity,
    enumerate_types,
    iid_extend,
    range_alphabet,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
)
from secexp.exponents import universal_exponent
from secexp.intrinsic import (
    build_specialized,
    check_specialized_identity,
    heavy_mass_lower_bound,
    specialized_d1_bound,
    specialized_exponent,
    specialized_map_d1,
)
from secexp.intrinsic import _normalized
from secexp.privacy import d1_hashed, pushforward

from conftest import normalized_by_fractions, random_dist


def _string_level_d1(p, smap):
    """d1 of p^n pushed through smap.cells string by string.

    Each cell's float string masses are summed exactly (math.fsum), so the
    reference carries only the rounding of the products in iid_extend; the
    running sums of `pushforward` drift by up to 8e-13 at 2^16 strings.
    """
    ext = iid_extend(p, smap.n)
    cells = [[] for _ in range(smap.m)]
    for cell, mass in zip(smap.cells.tolist(), ext.mass.tolist()):
        cells[cell - 1].append(mass)
    total = math.fsum(ext.mass.tolist())
    return math.fsum(abs(math.fsum(c) - total / smap.m) for c in cells)


def _sizes(n, size):
    """Output sizes from 2 past the string count |A|^n."""
    strings = size**n
    return sorted({2, 7, strings // 3 + 1, strings, 3 * strings})


class TestHeavyMassLowerBound:
    def test_uniform_matched(self):
        u = SubDist.uniform(range_alphabet(4))
        assert heavy_mass_lower_bound(u, 4) == 0.0

    def test_hand_value(self, skew3):
        assert heavy_mass_lower_bound(skew3, 4) == pytest.approx(0.5)

    def test_single_cell(self, skew3):
        # no atom reaches 2, and a single-cell output has distance 0
        assert heavy_mass_lower_bound(skew3, 1) == 0.0
        assert d1_hashed(skew3, [1, 1, 1], 1) == 0.0

    def test_sizes_of_any_magnitude(self, skew3):
        # 2 / M is correctly rounded int division: the float form's value up
        # to 2^20, and every atom counts as heavy at M = 10^400, which no
        # float holds
        for m in (1, 2, 7, 2**20):
            assert heavy_mass_lower_bound(skew3, m) == math.fsum(skew3.mass[skew3.mass >= 2.0 / m])
        assert heavy_mass_lower_bound(skew3, 10**400) == math.fsum(skew3.mass)

    def test_exhaustive_minimum_over_all_maps(self, skew3):
        # every map into {1..4} stays above the floor; the floor is attained
        p = skew3
        bound = heavy_mass_lower_bound(p, 4)
        best = min(
            d1_hashed(p, list(f), 4)
            for f in itertools.product(range(1, 5), repeat=3)
        )
        assert best >= bound - 1e-12
        assert best == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "p,n,m",
        [
            (SubDist.bernoulli(0.2), 2, 2),
            (SubDist.bernoulli(0.2), 2, 3),
            (SubDist.bernoulli(0.2), 3, 2),
            (SubDist.bernoulli(0.3), 3, 4),
            (SubDist(Alphabet(("a", "b", "c")), [0.6, 0.3, 0.1]), 1, 4),
        ],
    )
    def test_exhaustive_iid_instances(self, p, n, m):
        ext = iid_extend(p, n)
        bound = heavy_mass_lower_bound(ext, m)
        size = ext.alphabet.size
        assert size**1 <= 8**1  # instances chosen with |A|^n <= 8
        best = min(
            d1_hashed(ext, list(f), m)
            for f in itertools.product(range(1, m + 1), repeat=size)
        )
        assert best >= bound - 1e-12


class TestStringIndexing:
    def test_grouped_strings_match_extension_masses(self, bern02, ternary):
        # the index convention of the type grouping must agree with the
        # product-distribution ordering, cell by cell
        from secexp.dists import strings_by_type

        for p, n in ((bern02, 4), (ternary, 3)):
            ext = iid_extend(p, n)
            for tc, idxs in strings_by_type(p.alphabet, n):
                single = tc.prob_single(p)
                for idx in idxs:
                    assert ext.mass[idx] == pytest.approx(single, rel=1e-12)


class TestBuildSpecialized:
    def test_uniform_injective(self):
        u = SubDist.uniform(range_alphabet(4))
        smap = build_specialized(u, 1, 4)
        assert sorted(smap.cells.tolist()) == [1, 2, 3, 4]
        assert specialized_map_d1(u, smap) == pytest.approx(0.0, abs=1e-15)

    def test_bernoulli_half_fully_injective(self):
        p = SubDist.bernoulli(0.5)
        for n in (1, 2, 3):
            smap = build_specialized(p, n, 2**n)
            assert len(set(smap.cells.tolist())) == 2**n
            assert specialized_map_d1(p, smap) == pytest.approx(0.0, abs=1e-15)

    def test_cell_budget_and_partition(self):
        p = SubDist.bernoulli(0.2)
        smap = build_specialized(p, 4, 4)
        assert smap.cells_assigned() <= 4
        summary = smap.partition_summary()
        assert sum(summary.values()) == 5  # five types at n = 4
        assert smap.cells.min() >= 1 and smap.cells.max() <= 4

    def test_balanced_preimages_within_one(self):
        p = SubDist.bernoulli(0.3)
        smap = build_specialized(p, 5, 6)
        for rec in smap.records:
            if rec.category != "T2":
                continue
            # strings of this type occupy exactly n_cells cells, balanced
            counts = {}
            for idx, cell in enumerate(smap.cells):
                counts.setdefault(int(cell), 0)
            # recount per type via the record's class size
            assert rec.n_cells >= 1
            sizes = [
                rec.class_size // rec.n_cells + (1 if r < rec.class_size % rec.n_cells else 0)
                for r in range(rec.n_cells)
            ]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_d1_within_bound_bern02(self, n):
        p = SubDist.bernoulli(0.2)
        for m in (2, 4, min(2**n, 16)):
            smap = build_specialized(p, n, m)
            d1 = specialized_map_d1(p, smap)
            bound = specialized_d1_bound(p, n, m)["bound"]
            assert d1 <= bound + 1e-12

    def test_d1_within_bound_ternary(self, ternary):
        for n in (2, 3):
            for m in (3, 6):
                smap = build_specialized(ternary, n, m)
                assert specialized_map_d1(ternary, smap) <= (
                    specialized_d1_bound(ternary, n, m)["bound"] + 1e-12
                )

    def test_respects_heavy_mass_floor(self):
        p = SubDist.bernoulli(0.2)
        for n, m in ((3, 2), (4, 4), (5, 8)):
            smap = build_specialized(p, n, m)
            ext = iid_extend(p, n)
            assert specialized_map_d1(p, smap) >= heavy_mass_lower_bound(ext, m) - 1e-12


class TestTypeLevel:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_d1_equals_string_level_binary(self, bern02, n):
        rng = np.random.default_rng(n)
        for p in (bern02, random_dist(rng, 2)):
            for m in _sizes(n, 2):
                smap = build_specialized(p, n, m)
                assert specialized_map_d1(p, smap) == pytest.approx(
                    _string_level_d1(p, smap), rel=0, abs=1e-13
                ), (p, m)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_d1_equals_string_level_ternary(self, ternary, n):
        rng = np.random.default_rng(100 + n)
        for p in (ternary, random_dist(rng, 3)):
            for m in _sizes(n, 3):
                smap = build_specialized(p, n, m)
                assert specialized_map_d1(p, smap) == pytest.approx(
                    _string_level_d1(p, smap), rel=0, abs=1e-13
                ), (p, m)

    def test_d1_matches_pushforward_at_small_n(self, bern02, ternary):
        for p, n_max in ((bern02, 10), (ternary, 6)):
            for n in range(1, n_max + 1):
                for m in _sizes(n, p.alphabet.size):
                    smap = build_specialized(p, n, m)
                    hashed = pushforward(iid_extend(p, n), smap.cells, m)
                    assert specialized_map_d1(p, smap) == pytest.approx(
                        d1_uniformity(hashed), rel=0, abs=1e-13
                    )

    def test_heavy_mass_floor_matches_extension(self, bern02, ternary):
        for p, n_max in ((bern02, 12), (ternary, 7), (SubDist.bernoulli(0.5), 6)):
            for n in range(1, n_max + 1):
                for m in _sizes(n, p.alphabet.size):
                    floor = build_specialized(p, n, m).heavy_mass_floor()
                    expected = heavy_mass_lower_bound(iid_extend(p, n), m)
                    assert floor == pytest.approx(expected, rel=1e-12, abs=1e-15), (p, n, m)

    def test_bound_matches_float_formula(self, bern02, ternary):
        for p, n in ((bern02, 9), (ternary, 5)):
            types = enumerate_types(p.alphabet, n)
            for m in (2, 5, 40, 1000):
                got = specialized_d1_bound(p, n, m)
                heavy = math.fsum(
                    t.prob(p) for t in types if t.prob_single(p) >= 1.0 / m
                )
                middle = math.fsum(m * t.prob(p) * t.prob_single(p) for t in types)
                assert got["heavy_mass"] == pytest.approx(heavy, rel=1e-12)
                assert got["middle_sum"] == pytest.approx(middle, rel=1e-12)
                assert got["type_count_term"] == len(types) / m

    def test_normalized_bernoulli_is_exact(self, bern02):
        # 0.2 and 0.8 sum to 1 + 2^-54 as floats; divided by that exact sum
        # they are 1/5 and 4/5
        smap = build_specialized(bern02, 3, 4)
        assert (smap.weights, smap.denom) == ((1, 4), 5)

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0),  # subnormals included
                st.sampled_from([0.0, 5e-324, 2.0**-1022, 0.1, 0.2, 0.25, 0.5]),  # ties
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_normalized_equals_the_fraction_oracle(self, masses):
        # totals below 1 are kept as drawn; a total past 1 is scaled down
        assume(math.fsum(masses) > 0.0)
        if math.fsum(masses) > 1.0:
            masses = [x / len(masses) for x in masses]
        p = SubDist(range_alphabet(len(masses)), masses)
        assert _normalized(p) == normalized_by_fractions(p)

    @pytest.mark.parametrize("n", [100, 500, 1000])
    def test_cell_budget_holds_at_large_n(self, bern02, n):
        m = round(math.exp(0.3 * n))
        smap = build_specialized(bern02, n, m)  # raises RuntimeError past M
        assert smap.cells_assigned() <= m
        floor = smap.heavy_mass_floor()
        d1 = specialized_map_d1(bern02, smap)
        bound = specialized_d1_bound(bern02, n, m)["bound"]
        assert 0.0 < floor <= d1 <= bound < 1.0

    def test_bound_past_float_multiplicities(self, bern02):
        # the exact multiplicities at n = 1100 are past the float range
        res = specialized_d1_bound(bern02, 1100, round(math.exp(330.0)))
        assert all(math.isfinite(v) for v in res.values())
        assert 0.0 < res["bound"] < 1e-30

    def test_cells_only_under_the_string_cap(self, bern02):
        smap = build_specialized(bern02, 21, 4)
        assert 0.0 < specialized_map_d1(bern02, smap) <= 2.0
        with pytest.raises(SizeLimitError):
            smap.cells

    def test_refuses_another_source(self, bern02):
        smap = build_specialized(bern02, 3, 4)
        with pytest.raises(ValueError, match="another source"):
            specialized_map_d1(SubDist.bernoulli(0.3), smap)


class TestSpecializedExponent:
    def test_zero_at_entropy(self, bern02):
        res = specialized_exponent(bern02, shannon_entropy(bern02))
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_dominates_universal_exponent(self, bern02):
        res = specialized_exponent(bern02, 0.4)
        uni = universal_exponent(bern02, 0.4)
        assert res.value >= uni.value - 1e-12
        assert res.note is None  # 0.4 >= H~'_2 = 0.30469

    def test_uniform_linear_objective(self):
        u = SubDist.uniform(range_alphabet(4))
        r = 0.9
        res = specialized_exponent(u, r)
        assert res.value == pytest.approx(math.log(4.0) - r, abs=1e-9)
        assert res.argmax == pytest.approx(1.0, abs=1e-6)

    def test_flags_hypothesis(self, bern02):
        res = specialized_exponent(bern02, 0.2)  # below H~'_2
        assert res.note is not None


class TestIdentity:
    def test_branch_above_slope(self, bern02):
        # R = 0.45 >= H~'_2: all three forms agree
        rep = check_specialized_identity(bern02, 0.45)
        assert rep.branch == "slope<=R"
        assert rep.max_discrepancy <= 1e-5

    def test_branch_below_slope_hand_value(self, bern02):
        # R = 0.2 < H~'_2: the minimum equals H~_2 - R = 0.185662
        rep = check_specialized_identity(bern02, 0.2)
        assert rep.branch == "slope>R"
        assert rep.lhs == pytest.approx(0.185662, abs=1e-5)
        assert rep.order2_value == pytest.approx(
            renyi_tilde(bern02, 1.0) - 0.2, abs=1e-12
        )
        assert rep.max_discrepancy <= 1e-5

    def test_sweep_binary(self, bern02):
        h = shannon_entropy(bern02)
        for r in np.linspace(0.05, h, 12):
            rep = check_specialized_identity(bern02, float(r))
            assert rep.max_discrepancy <= 1e-5, (r, rep)

    def test_sweep_ternary(self, ternary):
        # both branches, keeping R below H(A) where the identity applies
        slope2 = renyi_tilde_derivative(ternary, 1.0)
        h = shannon_entropy(ternary)
        for r in (slope2 - 0.2, slope2 - 0.05, slope2 + 0.05, 0.5 * (slope2 + h)):
            rep = check_specialized_identity(ternary, float(r))
            assert rep.max_discrepancy <= 1e-5, (r, rep)
