import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from secexp import dists, hashing
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
from secexp.hashing import ExplicitFamily, FullyRandomFamily, HashFamily, ToeplitzFamily
from secexp.privacy import (
    best_subset_lower_bound,
    d1_conditional,
    d1_conditional_prime,
    d1_hashed,
    expected_collision_mass,
    expected_d1,
    expected_d1_conditional,
    joint_pushforward,
    pushforward,
    subset_lower_bound,
)

from conftest import exact_expected_d1, exact_sum, random_dist, random_subdist


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

    @pytest.mark.parametrize(
        "layout, side",
        [("empty outputs", 1), ("empty outputs", 5), ("all but one", 1), ("all but one", 5), ("3^12 strings", 1)],
    )
    def test_cells_are_correctly_rounded(self, layout, side):
        # each cell is math.fsum of its masses, which is their exact sum
        # rounded once.  Preimages of 937 and 1,019 symbols are summed by
        # math.fsum, of 1,044, 2,999 and about 265,000 by the exact-sum
        # kernel (summed in sequence, the 531,441 masses came to
        # 1.000000000003992 > 1)
        rng = np.random.default_rng(4)
        if layout == "3^12 strings":
            p = iid_extend(SubDist(Alphabet(("a", "b", "c")), [0.5, 0.3, 0.2]), 12)
            m, f = 2, rng.integers(1, 3, size=p.alphabet.size)
        else:
            p = random_dist(rng, 3000)
            m, f = 6, 2 * rng.integers(1, 4, size=p.alphabet.size)  # outputs 1, 3 and 5 empty
            if layout == "all but one":
                f[:] = 2
                f[1234] = 5
        weights = rng.random(side)
        j = JointDist(p.alphabet, range_alphabet(side), np.outer(p.mass, weights / weights.sum()))
        pushed, joint = pushforward(p, f, m).mass[:, None], joint_pushforward(j, f, m).mass
        checks = [(pushed, p.mass[:, None])]
        if side > 1:
            checks.append((joint, j.mass))
        else:  # the joint's masses are the source's, and so are its cells
            assert joint.tolist() == pushed.tolist()
        for got, mass in checks:
            cells = [[mass[f == y, e].tolist() for e in range(mass.shape[1])] for y in range(1, m + 1)]
            assert got.tolist() == [list(map(math.fsum, c)) for c in cells] == [list(map(exact_sum, c)) for c in cells]

    @pytest.mark.parametrize("m", [2**21, 2**40])
    @pytest.mark.parametrize(
        "helper", [pushforward, d1_hashed, joint_pushforward, d1_conditional, d1_conditional_prime]
    )
    def test_output_alphabet_is_refused_before_any_sum(self, helper, m):
        # m outputs past the alphabet cap: SizeLimitError before a cell of
        # the image is allocated
        source = skew3()
        if helper not in (pushforward, d1_hashed):
            source = JointDist(source.alphabet, range_alphabet(2), np.outer(source.mass, [0.5, 0.5]))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="alphabet symbols exceed cap"):
                helper(source, [1, 2, 1], m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


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
        values = [d1_hashed(p, fam.as_map(seed), 2) for seed in fam.seeds()]
        assert expected_d1(p, fam).value == math.fsum(values) / fam.seed_count

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_mc_count_is_checked_before_any_draw(self, n_samples, monkeypatch):
        def no_draw(*args):
            raise AssertionError("seed drawn before the sample count was checked")

        monkeypatch.setattr(HashFamily, "draw_seeds", no_draw)
        p = skew3()
        for fam in (FullyRandomFamily(p.alphabet, 2), ExplicitFamily(p.alphabet, 2, [[1, 2, 1]])):
            with pytest.raises(ValueError, match="at least 2 samples"):
                expected_d1(p, fam, mode="mc", n_samples=n_samples)

    def test_mc_caps_come_before_any_draw(self, monkeypatch):
        # the route caps, then one seed's histogram cap, all with the sampled
        # seeds in place of every seed, refuse before the first draw: no seed
        # is built (2,000,000 seeds of 1,000 digits would take 16 GB)
        def no_draw(*args):
            raise AssertionError("seed drawn before the caps were checked")

        monkeypatch.setattr(HashFamily, "draw_seeds", no_draw)
        u256, u1000 = (SubDist.uniform(range_alphabet(n)) for n in (256, 1000))
        toep = ToeplitzFamily(2, 17, 9)
        cases = [
            (u256, FullyRandomFamily(u256.alphabet, 2), 2_000_000,
             "512000000 map cells (2000000 seeds) exceed cap 400000000"),
            (u1000, FullyRandomFamily(u1000.alphabet, 2), 2_000_000,
             "2000000000 map cells (2000000 seeds) exceed cap 400000000"),
            (SubDist.uniform(toep.input_alphabet), toep, 100_000,
             "463028224 transform units (100000 seeds) exceed cap 250000000"),
            (skew3(), FullyRandomFamily(skew3().alphabet, 10**7), 2,
             "10000000 histogram cells (10000000 outputs x 1 side symbols) exceed cap 1048576"),
        ]
        shown = []
        tracemalloc.start()
        try:
            for p, fam, n_samples, _ in cases:
                with pytest.raises(SizeLimitError) as err:
                    expected_d1(p, fam, mode="mc", n_samples=n_samples)
                shown.append(str(err.value))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shown == [case[-1] for case in cases]
        assert peak < 1 << 25, peak

    def test_work_limit(self, monkeypatch):
        # each exact route has its own cap: subsets for fully random
        # families, the transform for linear ones, maps for the rest
        u12, u21 = (SubDist.uniform(range_alphabet(n)) for n in (12, 21))
        assert expected_d1(u12, FullyRandomFamily(u12.alphabet, 4)).value >= 0.0
        with pytest.raises(SizeLimitError, match="2097152 subsets"):
            expected_d1(u21, FullyRandomFamily(u21.alphabet, 4))
        toep = ToeplitzFamily(2, 6, 2)  # 6 x 64 + 32 x 4 x 2 = 640 units
        ut = SubDist.uniform(toep.input_alphabet)
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 639)
        with pytest.raises(SizeLimitError, match="640 transform units"):
            expected_d1(ut, toep)
        assert expected_d1(ut, toep, mode="mc", n_samples=4).value == pytest.approx(0.0, abs=1e-15)
        explicit = ExplicitFamily(u12.alphabet, 2, np.ones((5, 12), dtype=int))
        monkeypatch.setattr(hashing, "MAPS_LIMIT", 59)
        with pytest.raises(SizeLimitError, match="60 map cells"):
            expected_d1(u12, explicit)


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

    @pytest.mark.parametrize("kind", ["random", "tied", "tiny"])
    def test_best_subset_is_the_per_k_loop(self, kind):
        # the one-pass prefix sums give the per-k fsum loop's value and
        # subset bit for bit, ties to the first strict maximum
        def per_k(p, m):
            order = np.argsort(-p.mass, kind="stable")
            best, omega = 0.0, ()
            for k in range(min(m - 1, p.alphabet.size) + 1):
                val = subset_lower_bound(p, m, order[:k].tolist())
                if val > best:
                    best, omega = val, tuple(p.alphabet.symbols[i] for i in order[:k])
            return best, omega

        rng = np.random.default_rng(["random", "tied", "tiny"].index(kind))
        for _ in range(40):
            size = int(rng.integers(1, 50))
            if kind == "random":
                p = random_subdist(rng, size)
            else:
                tied = rng.integers(1, 4, size) / size / 3.0
                tiny = np.exp(-745.0 * rng.random(size)) / size  # down to subnormals
                symbols = tuple(f"x{i}" for i in range(size))
                p = SubDist(Alphabet(symbols), tied if kind == "tied" else tiny)
            for m in (1, 2, 3, size, size + 4, 10**30):
                assert best_subset_lower_bound(p, m) == per_k(p, m)

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
        oracle = sum(d1_conditional(j, f, 2) for f in fam.maps_of(fam.seeds())) / 2
        assert exact == pytest.approx(oracle, abs=1e-15)
        for t in np.linspace(0.0, 0.5, 6):
            assert exact <= conditional_hash_d1_bound_at(j, 2, float(t)) + 1e-12

    def test_full_leakage_oracle(self):
        alph = Alphabet(("0", "1"))
        j = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
        fam = FullyRandomFamily(alph, 2)
        vals = [d1_conditional(j, f, 2) for f in fam.maps_of(fam.seeds())]
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


def sequential_cells(mass, f_map, m):
    """Each output's mass summed in symbol order, as `map_histograms` sums it."""
    out = np.zeros((m,) + mass.shape[1:])
    np.add.at(out, f_map - 1, mass)
    return out


def rounded_cells(mass, f_map, m):
    """Each output's mass rounded once, as `pushforward` sums it."""
    cols = mass.reshape(len(mass), -1)
    sums = [[math.fsum(c) for c in cols[f_map == y].T.tolist()] for y in range(1, m + 1)]
    return np.array(sums).reshape((m,) + mass.shape[1:])


def d1_oracle(cells, total):
    ref = total / len(cells)
    return math.fsum(np.abs(cells - ref).tolist())


def conditional_oracle(cells, jmass):
    ref = np.array([math.fsum(col) for col in jmass.T.tolist()])[None, :] / len(cells)
    return math.fsum(np.abs(cells - ref).ravel().tolist())


def collision_oracle(cells):
    return math.fsum((cells**2).tolist())


def block_families():
    return [
        ToeplitzFamily(2, 6, 2),
        ToeplitzFamily(3, 3, 1),
        ToeplitzFamily(4, 3, 2),
        FullyRandomFamily(range_alphabet(4), 3),
    ]


class TestBlockKernel:
    """The ensembles read seed maps in blocks; every seed's value must equal
    the one-map formula bit for bit, however the blocks split."""

    @staticmethod
    def sources(fam, seed):
        rng = np.random.default_rng(seed)
        mass = rng.random(fam.input_alphabet.size) + 0.01
        p = SubDist(fam.input_alphabet, mass / mass.sum())
        jmass = rng.random((fam.input_alphabet.size, 3))
        j = JointDist(fam.input_alphabet, range_alphabet(3), jmass / jmass.sum())
        return p, j

    @pytest.mark.parametrize("fam", block_families(), ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("cells", [1 << 19, 37])
    def test_exact_means_are_fsums_of_one_map_values(self, fam, cells, monkeypatch):
        # the maps route (the same maps as an explicit family) is bit for bit;
        # the family's own route (transform or subsets) agrees within 1e-15
        monkeypatch.setattr(dists, "BLOCK_CELLS", cells)
        p, j = self.sources(fam, 3)
        m, count = fam.output_size, fam.seed_count
        maps = fam.maps_of(fam.seeds())
        by_maps = ExplicitFamily(fam.input_alphabet, m, maps)
        d1 = [d1_oracle(sequential_cells(p.mass, f, m), p.total) for f in maps]
        assert [d1_hashed(p, f, m) for f in maps] == [
            d1_oracle(rounded_cells(p.mass, f, m), p.total) for f in maps
        ]
        assert expected_d1(p, by_maps).value == math.fsum(d1) / count
        assert expected_d1(p, fam).value == pytest.approx(math.fsum(d1) / count, abs=1e-15)
        cond = [conditional_oracle(sequential_cells(j.mass, f, m), j.mass) for f in maps]
        assert [d1_conditional(j, f, m) for f in maps] == [
            conditional_oracle(rounded_cells(j.mass, f, m), j.mass) for f in maps
        ]
        assert expected_d1_conditional(j, by_maps).value == math.fsum(cond) / count
        assert expected_d1_conditional(j, fam).value == pytest.approx(
            math.fsum(cond) / count, abs=1e-15
        )
        coll = [collision_oracle(sequential_cells(p.mass, f, m)) for f in maps]
        assert expected_collision_mass(p, by_maps) == math.fsum(coll) / count
        assert expected_collision_mass(p, fam) == pytest.approx(math.fsum(coll) / count, abs=1e-15)

    @pytest.mark.parametrize("cells", [1 << 19, 5 * 256 + 3])
    def test_toeplitz_mc_equals_per_sample_loop(self, cells, monkeypatch):
        # the same sampled seeds, drawn a block at a time or one by one; the
        # transform agrees with the maps within 1e-15, and so do the other
        # families' maps with the one-map formula
        monkeypatch.setattr(dists, "BLOCK_CELLS", cells)
        toep = ToeplitzFamily(2, 8, 3)
        alph, m = toep.input_alphabet, toep.output_size
        p, j = self.sources(toep, 8)
        maps = toep.maps_of(toep.seeds(0, 40))
        for fam in (toep, FullyRandomFamily(alph, m), ExplicitFamily(alph, m, maps)):
            for func, one_map, data in (
                (expected_d1, d1_hashed, p),
                (expected_d1_conditional, d1_conditional, j),
            ):
                rng = np.random.default_rng(9)
                values = [one_map(data, fam.as_map(fam.sample_seed(rng)), m) for _ in range(60)]
                mean = math.fsum(values) / 60
                var = math.fsum((v - mean) ** 2 for v in values) / 59
                est = func(data, fam, mode="mc", n_samples=60, seed=9)
                assert est.value == pytest.approx(mean, abs=1e-15)
                assert est.stderr == pytest.approx(math.sqrt(var / 60), abs=1e-15)


def engine_sources(fam, rng):
    """A source with zero atoms and total mass below 1, and a joint whose
    secret marginal has zero atoms too."""
    n = fam.input_alphabet.size
    mass = rng.random(n) * (rng.random(n) > 0.3)
    p = SubDist(fam.input_alphabet, 0.8 * mass / mass.sum())
    jmass = rng.random((n, 3)) * (rng.random((n, 1)) > 0.3)
    j = JointDist(fam.input_alphabet, range_alphabet(3), jmass / jmass.sum())
    return p, j


class TestTransformRoute:
    """The character transform of a linear family against a per-seed oracle:
    `map_histograms` of `maps_of`, the maps route of the same seeds."""

    @pytest.mark.parametrize(
        "q,k,m", [(2, 3, 1), (2, 6, 2), (2, 8, 5), (3, 4, 2), (3, 5, 1), (4, 3, 2), (4, 4, 1), (5, 3, 1), (5, 4, 2)]
    )
    def test_pushforward_rows_match_the_maps(self, q, k, m):
        fam = ToeplitzFamily(q, k, m)
        p, j = engine_sources(fam, np.random.default_rng(q * 100 + k * 10 + m))
        for weights in (p.mass, j.mass):
            got = np.concatenate(list(fam.pushforward_blocks(weights)))
            oracle = np.concatenate(list(HashFamily.pushforward_blocks(fam, weights)))
            assert got.shape == oracle.shape == (fam.seed_count, fam.output_size) + weights.shape[1:]
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("q,k,m", [(2, 6, 2), (3, 4, 2), (4, 3, 1), (5, 3, 2)])
    def test_ensembles_match_the_maps(self, q, k, m):
        fam = ToeplitzFamily(q, k, m)
        p, j = engine_sources(fam, np.random.default_rng(q + k + m))
        by_maps = ExplicitFamily(fam.input_alphabet, fam.output_size, fam.maps_of(fam.seeds()))
        close = lambda a, b: a == pytest.approx(b, rel=0, abs=1e-15)
        assert close(expected_d1(p, fam).value, expected_d1(p, by_maps).value)
        assert close(
            expected_d1_conditional(j, fam).value, expected_d1_conditional(j, by_maps).value
        )
        assert close(expected_collision_mass(p, fam), expected_collision_mass(p, by_maps))
        # Monte Carlo: the same sampled seeds, each value from the maps
        for func, one_map, data in ((expected_d1, d1_hashed, p), (expected_d1_conditional, d1_conditional, j)):
            rng = np.random.default_rng(5)
            values = [one_map(data, fam.as_map(fam.sample_seed(rng)), fam.output_size) for _ in range(30)]
            est = func(data, fam, mode="mc", n_samples=30, seed=5)
            assert close(est.value, math.fsum(values) / 30)

    def test_bern_20_exactly(self):
        # 2^19 seeds x 2^20 strings: past any per-seed sweep, and the
        # closest instance of the paper's i.i.d. setting computed exactly
        start = time.perf_counter()
        p = iid_extend(SubDist.bernoulli(0.2), 20)
        fam = ToeplitzFamily(2, 20, 4)
        exact = expected_d1(p, fam).value
        assert time.perf_counter() - start < 10.0
        assert 0.0 < exact <= order2_d1_bound(p, fam.output_size)


class TestSubsetLaw:
    """The subset law of a fully random family against every seed map."""

    @pytest.mark.parametrize("size,m", [(1, 3), (2, 2), (3, 1), (3, 3), (4, 2), (4, 5), (5, 3)])
    def test_matches_enumeration(self, size, m):
        fam = FullyRandomFamily(range_alphabet(size), m)
        p, j = engine_sources(fam, np.random.default_rng(10 * size + m))
        by_maps = ExplicitFamily(fam.input_alphabet, m, fam.maps_of(fam.seeds()))
        close = lambda a, b: a == pytest.approx(b, rel=0, abs=1e-15)
        assert close(expected_d1(p, fam).value, expected_d1(p, by_maps).value)
        assert close(
            expected_d1_conditional(j, fam).value, expected_d1_conditional(j, by_maps).value
        )
        assert close(expected_collision_mass(p, fam), expected_collision_mass(p, by_maps))

    @pytest.mark.parametrize("m", [10**11, 10**400], ids=["1e11", "1e400"])
    def test_any_output_size(self, m):
        # 2^20 subsets, whatever M: as M grows every atom gets an output of
        # its own, and d1 tends to 2 P(A)
        p = random_dist(np.random.default_rng(3), 20)
        fam = FullyRandomFamily(p.alphabet, m)
        assert expected_d1(p, fam).value == pytest.approx(2.0, abs=1e-9)
        assert expected_collision_mass(p, fam) == pytest.approx(
            math.fsum((p.mass**2).tolist()), abs=1e-9
        )


def one_side_families():
    alph = range_alphabet(5)
    maps = np.random.default_rng(6).integers(1, 4, size=(7, 5))
    return [
        ToeplitzFamily(2, 6, 2),
        ToeplitzFamily(3, 4, 2),
        ToeplitzFamily(4, 3, 1),
        FullyRandomFamily(alph, 3),
        ExplicitFamily(alph, 3, maps),
    ]


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "fam", one_side_families(), ids=["toeplitz-F2", "toeplitz-F3", "toeplitz-GF4", "fullrandom", "explicit"]
)
def test_a_source_is_a_joint_with_one_side_symbol(fam, mode):
    # bit for bit on every route: the transform, the subset law (exact) and
    # the maps (fully random in mc, explicit maps in both modes)
    n, m = fam.input_alphabet.size, fam.output_size
    rng = np.random.default_rng(n)
    mass = rng.random(n) * (rng.random(n) > 0.3)
    p = SubDist(fam.input_alphabet, mass / mass.sum())
    j = JointDist(p.alphabet, range_alphabet(1), p.mass[:, None])
    sampling = dict(mode=mode, n_samples=40, seed=8)
    assert expected_d1(p, fam, **sampling) == expected_d1_conditional(j, fam, **sampling)
    f = fam.maps_of(fam.seeds(0, 1))[0]
    assert d1_hashed(p, f, m) == d1_conditional(j, f, m)


class TestRationalOracle:
    """Exact E d1 against its value in rationals (`exact_expected_d1`), within
    k e 2^-53 times the total mass, k e being the input's digits over F_p."""

    @staticmethod
    def bound(fam, total):
        return fam.k * fam.field.degree * 2.0**-53 * total

    def test_the_oracle_by_hand(self):
        # the eight maps of {a,b,c} -> {1,2} average exactly 1/2
        p = skew3()
        fam = FullyRandomFamily(p.alphabet, 2)
        assert exact_expected_d1(p.mass, fam.maps_of(fam.seeds()), 2) == 0.5

    @pytest.mark.parametrize(
        "q,k,m,base", [(2, 8, 3, (0.8, 0.2)), (2, 10, 4, (0.8, 0.2)), (3, 6, 2, (0.5, 0.3, 0.2))]
    )
    def test_source(self, q, k, m, base):
        fam = ToeplitzFamily(q, k, m)
        p = SubDist(fam.input_alphabet, iid_extend(SubDist(range_alphabet(q), base), k).mass)
        exact = exact_expected_d1(p.mass, fam.maps_of(fam.seeds()), fam.output_size)
        assert abs(expected_d1(p, fam).value - exact) <= self.bound(fam, p.total)

    def test_joint_over_gf4(self):
        fam = ToeplitzFamily(4, 4, 2)
        jmass = np.random.default_rng(12).random((fam.input_alphabet.size, 2))
        j = JointDist(fam.input_alphabet, range_alphabet(2), jmass / jmass.sum())
        exact = exact_expected_d1(j.mass, fam.maps_of(fam.seeds()), fam.output_size)
        total = math.fsum(j.mass.ravel())
        assert abs(expected_d1_conditional(j, fam).value - exact) <= self.bound(fam, total)
