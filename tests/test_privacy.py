import itertools
import math

import numpy as np
import pytest

from secexp.dists import (
    Alphabet,
    JointDist,
    SizeLimitError,
    SubDist,
    iid_extend,
    range_alphabet,
    renyi_tilde,
)
from secexp.exponents import (
    conditional_hash_d1_bound_at,
    hash_d1_bound_at,
    order2_d1_bound,
)
from secexp.hashing import FullyRandomFamily, ToeplitzFamily
from secexp.privacy import (
    best_subset_lower_bound,
    d1_conditional,
    d1_conditional_prime,
    d1_hashed,
    expected_collision_mass,
    expected_d1,
    expected_d1_conditional,
    pushforward,
    subset_lower_bound,
)

from conftest import random_dist, random_subdist


def skew3():
    return SubDist(Alphabet(("a", "b", "c")), [0.5, 0.25, 0.25])


class TestConcreteHash:
    def test_single_cell_distance_zero(self):
        assert d1_hashed(skew3(), [1, 1, 1], 1) == 0.0

    def test_injective_uniform(self):
        u = SubDist.uniform(range_alphabet(4))
        assert d1_hashed(u, [1, 2, 3, 4], 4) == 0.0

    def test_hand_value(self):
        assert d1_hashed(skew3(), [1, 1, 2], 2) == pytest.approx(0.5)

    def test_pushforward_preserves_total(self):
        p = SubDist(Alphabet(("a", "b", "c")), [0.3, 0.2, 0.1])
        q = pushforward(p, [2, 1, 2], 2)
        assert q.total == pytest.approx(p.total, abs=1e-15)
        np.testing.assert_allclose(q.mass, [0.2, 0.4])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            d1_hashed(skew3(), [1, 3, 1], 2)


class TestExpectedD1Oracle:
    def test_all_eight_seed_maps_by_hand(self):
        # brute-force oracle: every map {a,b,c} -> {1,2}; the ensemble values
        # are (1, .5, .5, 0, 0, .5, .5, 1) and average to exactly 1/2
        p = skew3()
        values = []
        for f in itertools.product((1, 2), repeat=3):
            values.append(d1_hashed(p, list(f), 2))
        assert sorted(values) == [0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
        oracle = sum(values) / len(values)
        fam = FullyRandomFamily(p.alphabet, 2)
        est = expected_d1(p, fam)
        assert est.value == pytest.approx(oracle, abs=1e-15)
        assert est.value == pytest.approx(0.5, abs=1e-15)
        assert est.stderr is None

    def test_toeplitz_on_uniform_is_zero(self):
        fam = ToeplitzFamily(2, 3, 1)
        u = SubDist.uniform(fam.input_alphabet)
        assert expected_d1(u, fam).value == pytest.approx(0.0, abs=1e-15)

    def test_exact_is_fsum_over_seeds(self):
        p = skew3()
        fam = FullyRandomFamily(p.alphabet, 2)
        values = [d1_hashed(p, fam.as_map(seed), 2) for seed in fam.iter_seeds()]
        assert expected_d1(p, fam).value == math.fsum(values) / fam.seed_count

    def test_work_limit(self):
        fam = FullyRandomFamily(range_alphabet(12), 4)
        with pytest.raises(SizeLimitError):
            expected_d1(SubDist.uniform(range_alphabet(12)), fam)


def fixture_instances():
    """(P, M, family) instances small enough for exact seed enumeration."""
    rng = np.random.default_rng(20240814)
    dists = [
        SubDist.bernoulli(0.2),
        SubDist.bernoulli(0.35),
        skew3(),
        SubDist(Alphabet(("a", "b", "c", "d")), [0.4, 0.3, 0.2, 0.1]),
        SubDist.uniform(range_alphabet(3)),
        iid_extend(SubDist.bernoulli(0.2), 2),
    ]
    for size in (2, 3, 4):
        for _ in range(4):
            dists.append(random_dist(rng, size))
    out = []
    for p in dists:
        for m in (2, 3, 4):
            out.append((p, m, FullyRandomFamily(p.alphabet, m)))
    # balanced linear families on digit-labelled alphabets
    for q, k, m_exp in ((2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1)):
        fam = ToeplitzFamily(q, k, m_exp)
        raw = rng.random(fam.input_alphabet.size) + 0.05
        p = SubDist(fam.input_alphabet, raw / raw.sum())
        out.append((p, fam.output_size, fam))
    return out


class TestHashBoundSandwich:
    def test_fixture_count(self):
        assert len(fixture_instances()) >= 50

    def test_exact_average_below_bounds_everywhere(self):
        for p, m, fam in fixture_instances():
            exact = expected_d1(p, fam).value
            for s in np.linspace(0.0, 1.0, 21):
                assert exact <= hash_d1_bound_at(p, m, float(s)) + 1e-12
            assert exact <= order2_d1_bound(p, m) + 1e-12

    def test_leftover_hash_exact_average(self):
        for p, m, fam in fixture_instances():
            avg = expected_collision_mass(p, fam)
            bound = math.exp(-renyi_tilde(p, 1.0)) + p.total**2 / m
            assert avg <= bound + 1e-12

    def test_leftover_hash_subdistributions(self):
        rng = np.random.default_rng(7)
        for size in (2, 3, 4):
            for _ in range(5):
                p = random_subdist(rng, size)
                for m in (2, 3):
                    fam = FullyRandomFamily(p.alphabet, m)
                    avg = expected_collision_mass(p, fam)
                    bound = math.exp(-renyi_tilde(p, 1.0)) + p.total**2 / m
                    assert avg <= bound + 1e-12


class TestSubsetLowerBound:
    def test_empty_subset(self):
        assert subset_lower_bound(skew3(), 2, []) == 0.0

    def test_hand_value(self):
        p = skew3()
        assert subset_lower_bound(p, 2, ["a"]) == pytest.approx(0.125)
        assert expected_d1(p, FullyRandomFamily(p.alphabet, 2)).value >= 0.125

    def test_subset_too_large(self):
        with pytest.raises(ValueError):
            subset_lower_bound(skew3(), 2, ["a", "b"])

    def test_bound_vanishes_as_subset_fills(self):
        p = SubDist.uniform(range_alphabet(4))
        vals = [subset_lower_bound(p, 4, list(range(k))) for k in range(4)]
        assert vals[3] <= vals[1] or vals[3] == pytest.approx(
            (1 - 3 / 4) ** 2 * 0.75
        )
        assert subset_lower_bound(p, 4, [0, 1, 2]) == pytest.approx(
            (1 - 3 / 4) ** 2 * 0.75
        )

    def test_exhaustive_over_subsets(self):
        # strongly universal families respect the floor for every subset
        rng = np.random.default_rng(99)
        dists = [skew3(), SubDist.bernoulli(0.2)]
        for size in (3, 4):
            dists.append(random_dist(rng, size))
        for p in dists:
            n = p.alphabet.size
            for m in (2, 3):
                fam = FullyRandomFamily(p.alphabet, m)
                exact = expected_d1(p, fam).value
                for k in range(0, m):
                    for omega in itertools.combinations(range(n), k):
                        assert exact >= subset_lower_bound(p, m, omega) - 1e-12

    def test_best_subset_matches_exhaustive(self):
        p = skew3()
        best, omega = best_subset_lower_bound(p, 3)
        brute = max(
            subset_lower_bound(p, 3, om)
            for k in range(3)
            for om in itertools.combinations(range(3), k)
        )
        assert best == pytest.approx(brute)
        assert set(omega) <= set(p.alphabet.symbols)


class TestConditional:
    def test_independent_and_uniform_image(self):
        pa = SubDist.uniform(range_alphabet(4))
        pe = SubDist(Alphabet(("e0", "e1")), [0.3, 0.7])
        j = JointDist.independent(pa, pe)
        assert d1_conditional(j, [1, 2, 1, 2], 2) == pytest.approx(0.0, abs=1e-15)

    def test_full_leakage_hand_value(self):
        alph = Alphabet(("0", "1"))
        j = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
        assert d1_conditional(j, [1, 2], 2) == pytest.approx(1.0)

    def test_prime_at_most_twice(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mass = rng.random((3, 3))
            mass /= mass.sum()
            j = JointDist(range_alphabet(3), Alphabet(("x", "y", "z")), mass)
            for f in itertools.product((1, 2), repeat=3):
                d = d1_conditional(j, list(f), 2)
                dp = d1_conditional_prime(j, list(f), 2)
                assert dp <= 2.0 * d + 1e-12

    def test_independent_side_reduces_to_marginal(self):
        p = skew3()
        pe = SubDist(Alphabet(("u", "v")), [0.6, 0.4])
        j = JointDist.independent(p, pe)
        fam = FullyRandomFamily(p.alphabet, 2)
        cond = expected_d1_conditional(j, fam).value
        marg = expected_d1(p, fam).value
        assert cond == pytest.approx(marg, abs=1e-12)

    def test_exact_conditional_below_phi_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            mass = rng.random((2, 2)) + 0.05
            mass /= mass.sum()
            j = JointDist(range_alphabet(2), Alphabet(("e0", "e1")), mass)
            fam = FullyRandomFamily(j.alphabet_a, 2)
            exact = expected_d1_conditional(j, fam).value
            for t in np.linspace(0.0, 0.5, 11):
                assert exact <= conditional_hash_d1_bound_at(j, 2, float(t)) + 1e-12

    def test_toeplitz_conditional_ensemble(self):
        # balanced linear family on a joint whose secret lives on F_2^2
        fam = ToeplitzFamily(2, 2, 1)
        rng = np.random.default_rng(21)
        mass = rng.random((4, 2)) + 0.05
        mass /= mass.sum()
        j = JointDist(fam.input_alphabet, Alphabet(("e0", "e1")), mass)
        exact = expected_d1_conditional(j, fam).value
        oracle = sum(d1_conditional(j, f, 2) for f in fam.iter_maps()) / 2
        assert exact == pytest.approx(oracle, abs=1e-15)
        for t in np.linspace(0.0, 0.5, 6):
            assert exact <= conditional_hash_d1_bound_at(j, 2, float(t)) + 1e-12

    def test_full_leakage_oracle(self):
        alph = Alphabet(("0", "1"))
        j = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
        fam = FullyRandomFamily(alph, 2)
        vals = [d1_conditional(j, f, 2) for f in fam.iter_maps()]
        oracle = sum(vals) / len(vals)
        assert expected_d1_conditional(j, fam).value == pytest.approx(oracle)
        # full leakage keeps the average well away from zero
        assert oracle >= subset_lower_bound(j.marginal_a(), 2, ["0"]) - 1e-12


class TestMonteCarlo:
    def test_converges_to_exact(self):
        p = skew3()
        fam = FullyRandomFamily(p.alphabet, 2)
        exact = expected_d1(p, fam).value
        est = expected_d1(p, fam, mode="mc", n_samples=2000, seed=3)
        assert est.stderr is not None
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_reproducible(self):
        p = skew3()
        fam = FullyRandomFamily(p.alphabet, 2)
        a = expected_d1(p, fam, mode="mc", n_samples=100, seed=42)
        b = expected_d1(p, fam, mode="mc", n_samples=100, seed=42)
        assert a.value == b.value and a.stderr == b.stderr

    def test_conditional_mc(self):
        alph = Alphabet(("0", "1"))
        j = JointDist(alph, alph, [[0.4, 0.1], [0.2, 0.3]])
        fam = FullyRandomFamily(alph, 2)
        exact = expected_d1_conditional(j, fam).value
        est = expected_d1_conditional(j, fam, mode="mc", n_samples=1500, seed=1)
        assert abs(est.value - exact) <= 3.0 * max(est.stderr, 1e-12)
