import itertools

import numpy as np
import pytest

from secexp.dists import Alphabet, range_alphabet
from secexp.gf import Field, Module
from secexp.hashing import (
    ExplicitFamily,
    FullyRandomFamily,
    NonEnumerableError,
    ToeplitzFamily,
    check_balanced,
    check_strongly_universal2,
    check_universal2,
    fit_toeplitz,
)


class TestField:
    def test_prime_arithmetic(self):
        f = Field(3)
        assert f.add(2, 2) == 1
        assert f.sub(0, 1) == 2
        assert f.mul(2, 2) == 1

    def test_gf4_tables(self):
        f = Field(4)
        # x * x = x + 1, x * (x+1) = 1, (x+1)^2 = x
        assert f.mul(2, 2) == 3
        assert f.mul(2, 3) == 1
        assert f.mul(3, 3) == 2
        assert f.add(2, 3) == 1
        assert f.sub(3, 3) == 0

    def test_gf4_field_axioms(self):
        f = Field(4)
        for a, b, c in itertools.product(range(4), repeat=3):
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            Field(6)


class TestModule:
    def test_digit_roundtrip(self):
        mod = Module(3, 2)
        for i in range(mod.size):
            assert mod.index(mod.digits(i)) == i

    def test_group_ops(self):
        mod = Module(2, 3)
        for i in range(8):
            assert mod.sub_idx(mod.add_idx(i, 5), 5) == i
            assert mod.add_idx(i, mod.neg_idx(i)) == 0


class TestFullyRandomEval:
    def test_seed_listing_lookup(self):
        fam = FullyRandomFamily(Alphabet(("a", "b", "c")), 2)
        assert fam.eval((1, 2, 1), 1) == 2
        assert fam.as_map((1, 2, 1)).tolist() == [1, 2, 1]

    def test_out_of_range_seed_rejected(self):
        fam = FullyRandomFamily(range_alphabet(2), 2)
        with pytest.raises(ValueError):
            fam.eval((1, 3), 1)


class TestToeplitzEval:
    def test_zero_seed_is_identity_projection(self):
        fam = ToeplitzFamily(2, 2, 1)
        # matrix (0 1): output is the identity coordinate a2
        m = fam.as_map((0,))
        assert m.tolist() == [1, 2, 1, 2]

    def test_sum_seed(self):
        fam = ToeplitzFamily(2, 2, 1)
        # matrix (1 1): output is a1 + a2 mod 2
        m = fam.as_map((1,))
        assert m.tolist() == [1, 2, 2, 1]

    def test_matrix_shape_and_identity_block(self):
        fam = ToeplitzFamily(3, 4, 2)
        mat = fam.matrix((1, 2, 0))
        assert mat.shape == (2, 4)
        np.testing.assert_array_equal(mat[:, 2:], np.eye(2, dtype=int))
        # Toeplitz block: constant diagonals
        assert mat[0, 0] == mat[1, 1]

    def test_seed_count(self):
        for q, k in ((2, 3), (3, 2), (4, 3)):
            fam = ToeplitzFamily(q, k, 1)
            assert fam.seed_count == q ** (k - 1)
            assert len(list(fam.iter_seeds())) == fam.seed_count

    def test_eval_matches_field_arithmetic(self):
        fam = ToeplitzFamily(4, 3, 1)
        f = Field(4)
        for seed in fam.iter_seeds():
            mat = fam.matrix(seed)
            for idx in range(fam.input_alphabet.size):
                digits = fam._digits[idx]
                expect = 0
                for j in range(3):
                    expect = f.add(expect, f.mul(int(mat[0, j]), int(digits[j])))
                assert fam.eval(seed, idx) == expect + 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ToeplitzFamily(2, 2, 2)
        with pytest.raises(ValueError):
            ToeplitzFamily(2, 1, 1)

    @pytest.mark.parametrize(
        "m, l, q, shape",
        [
            (2, 2, 2, (2, 2, 1)),
            (4, 2, 2, (2, 3, 2)),
            (3, 9, 3, (3, 3, 1)),
            (3, 2, 2, None),  # M not a power of q
            (2, 3, 2, None),  # M*L not a power of q
            (4, 1, 2, None),  # needs m < k
            (2, 2, 1, None),  # no field of size 1
        ],
    )
    def test_fit_toeplitz(self, m, l, q, shape):
        fam = fit_toeplitz(m, l, q)
        assert (None if fam is None else (fam.q, fam.k, fam.m)) == shape


def all_toeplitz_instances():
    out = []
    for q in (2, 3, 4):
        for k in range(2, 5):
            for m in range(1, k):
                out.append((q, k, m))
    return out


class TestConditions:
    @pytest.mark.parametrize("q,k,m", all_toeplitz_instances())
    def test_toeplitz_universal2_and_balanced(self, q, k, m):
        fam = ToeplitzFamily(q, k, m)
        rep = check_universal2(fam)
        assert rep.passed, (q, k, m, rep)
        assert check_balanced(fam).passed

    def test_fully_random_collision_exact(self):
        for size, m in ((2, 2), (3, 2), (3, 3), (4, 3)):
            fam = FullyRandomFamily(range_alphabet(size), m)
            rep = check_universal2(fam)
            assert rep.passed
            assert rep.max_collision == pytest.approx(1.0 / m, abs=1e-15)

    def test_fully_random_strongly_universal_exhaustive(self):
        for size in (2, 3, 4):
            for m in (2, 3):
                fam = FullyRandomFamily(range_alphabet(size), m)
                assert check_strongly_universal2(fam).passed

    def test_fully_random_unbalanced(self):
        fam = FullyRandomFamily(range_alphabet(3), 2)
        rep = check_balanced(fam)
        assert not rep.passed

    def test_identity_family_balanced(self):
        alph = range_alphabet(3)
        fam = ExplicitFamily(alph, 3, [[1, 2, 3]])
        assert check_balanced(fam).passed
        assert check_universal2(fam).passed

    def test_constant_family_fails(self):
        alph = range_alphabet(3)
        fam = ExplicitFamily(alph, 2, [[1, 1, 1], [1, 1, 1]])
        rep = check_universal2(fam)
        assert not rep.passed
        assert rep.max_collision == 1.0
        assert not check_strongly_universal2(fam).passed

    def test_toeplitz_not_strongly_universal(self):
        # the all-zero input maps to output 1 under every seed, so single
        # outputs are not uniform; linear families fail condition 3
        fam = ToeplitzFamily(2, 2, 1)
        rep = check_strongly_universal2(fam)
        assert not rep.passed
        assert not rep.single_uniform

    def test_enumeration_limit(self):
        fam = FullyRandomFamily(range_alphabet(30), 4)
        with pytest.raises(NonEnumerableError):
            check_universal2(fam)


class TestSeedSampling:
    def test_pcg64_stream_pinned(self):
        # the documented deterministic stream: PCG64 via default_rng
        rng = np.random.default_rng(12345)
        assert rng.integers(0, 2, size=8).tolist() == [1, 0, 1, 0, 0, 1, 1, 1]
        assert np.random.default_rng(12345).integers(0, 3, size=6).tolist() == [
            2, 0, 2, 0, 0, 2,
        ]

    def test_sampled_seeds_reproducible(self):
        fam = ToeplitzFamily(2, 3, 1)
        s1 = fam.sample_seed(np.random.default_rng(7))
        s2 = fam.sample_seed(np.random.default_rng(7))
        assert s1 == s2
        fam2 = FullyRandomFamily(range_alphabet(4), 3)
        assert fam2.sample_seed(np.random.default_rng(9)) == fam2.sample_seed(
            np.random.default_rng(9)
        )

    def test_sampled_seed_valid(self):
        fam = ToeplitzFamily(3, 3, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            seed = fam.sample_seed(rng)
            m = fam.as_map(seed)
            assert m.min() >= 1 and m.max() <= fam.output_size
