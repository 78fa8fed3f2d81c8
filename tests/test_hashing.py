import itertools
import time
import tracemalloc

import numpy as np
import pytest

from secexp import dists, hashing
from secexp.dists import DEFAULT_MAX_CELLS, Alphabet, SizeLimitError, SubDist, range_alphabet
from secexp.gf import Field, Module
from secexp.hashing import (
    ExplicitFamily,
    FullyRandomFamily,
    HashFamily,
    LinearFamily,
    ToeplitzFamily,
    check_balanced,
    check_strongly_universal2,
    check_universal2,
    fit_toeplitz,
)
from secexp.privacy import expected_d1

from conftest import assert_bit_equal, balanced_by_maps, image_counts_by_maps, kernel_counts


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

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_tables_match_scalar_arithmetic(self, q):
        f = Field(q)
        add, mul = f.tables()
        for a, b in itertools.product(range(q), repeat=2):
            assert add[a, b] == f.add(a, b)
            assert mul[a, b] == f.mul(a, b)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_digit_matrices_multiply_base_p_digits(self, q):
        f = Field(q)
        p, e = f.prime, f.degree
        assert p**e == q
        digits = lambda i: [i // p ** (e - 1 - j) % p for j in range(e)]
        for c, b in itertools.product(range(q), repeat=2):
            got = f.digit_matrices()[c] @ digits(b) % p
            assert got.tolist() == digits(f.mul(c, b))


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

    @pytest.mark.parametrize("q", [2, 3, 11, 13])
    @pytest.mark.parametrize("n", [2, 3])
    def test_labels_are_the_toeplitz_input_labels(self, q, n):
        # past q = 10 the digits are joined by "|", so (1, 12) and (11, 2)
        # stay apart
        labels = Module(q, n).labels()
        assert labels == ToeplitzFamily(q, n, 1).input_alphabet.symbols
        assert len(set(labels)) == q**n


class TestFullyRandomEval:
    def test_seed_listing_lookup(self):
        fam = FullyRandomFamily(Alphabet(("a", "b", "c")), 2)
        assert fam.as_map((1, 2, 1)).tolist() == [1, 2, 1]
        seeds = np.array([[1, 2, 1], [2, 2, 1]])
        assert fam.maps_of(seeds).tolist() == seeds.tolist()

    def test_out_of_range_seed_rejected(self):
        fam = FullyRandomFamily(range_alphabet(2), 2)
        with pytest.raises(ValueError):
            fam.as_map((1, 3))
        with pytest.raises(ValueError):
            fam.as_map((1,))


def toeplitz_reference_map(fam: ToeplitzFamily, seed) -> list[int]:
    """One seed's map by the definition: the (X | I) matrix with
    X[i][j] = seed[(k - m - 1) + i - j], applied to each input's digits with
    scalar field arithmetic."""
    q, k, m = fam.q, fam.k, fam.m
    f, inputs, outputs = Field(q), Module(q, k), Module(q, m)
    mat = [[0] * k for _ in range(m)]
    for i in range(m):
        for j in range(k - m):
            mat[i][j] = int(seed[(k - m - 1) + i - j])
        mat[i][(k - m) + i] = 1
    out = []
    for idx in range(inputs.size):
        digits = inputs.digits(idx)
        image = []
        for row in mat:
            acc = 0
            for coef, d in zip(row, digits):
                acc = f.add(acc, f.mul(coef, d))
            image.append(acc)
        out.append(outputs.index(image) + 1)
    return out


def toeplitz_matrix(fam: ToeplitzFamily, seed) -> np.ndarray:
    """The matrix of a seed's map, read off the images of the unit vectors."""
    f_map = fam.as_map(seed)
    out_mod = Module(fam.q, fam.m)
    cols = [out_mod.digits(int(f_map[fam.q ** (fam.k - 1 - j)]) - 1) for j in range(fam.k)]
    return np.array(cols).T


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

    def test_identity_block_and_constant_diagonals(self):
        fam = ToeplitzFamily(3, 4, 2)
        mat = toeplitz_matrix(fam, (1, 2, 0))
        assert mat.shape == (2, 4)
        np.testing.assert_array_equal(mat[:, 2:], np.eye(2, dtype=int))
        # Toeplitz block: constant diagonals, seed digit 0 top-right
        assert mat[0, 0] == mat[1, 1] == 2
        assert mat[0, 1] == 1 and mat[1, 0] == 0

    def test_seed_count(self):
        for q, k in ((2, 3), (3, 2), (4, 3)):
            fam = ToeplitzFamily(q, k, 1)
            assert fam.seed_count == q ** (k - 1)
            assert fam.seeds().shape == (fam.seed_count, k - 1)

    @pytest.mark.parametrize(
        "q,k,m",
        [(2, 2, 1), (2, 5, 2), (2, 6, 3), (2, 6, 5), (3, 3, 1), (3, 4, 2), (3, 5, 2),
         (4, 3, 1), (4, 4, 2), (4, 4, 3), (5, 3, 2), (7, 3, 1)],
    )
    def test_maps_of_matches_field_loops(self, q, k, m):
        fam = ToeplitzFamily(q, k, m)
        seeds = fam.seeds()
        expect = [toeplitz_reference_map(fam, seed) for seed in seeds.tolist()]
        assert fam.maps_of(seeds).tolist() == expect

    def test_one_map_builds_no_output_table(self):
        # a map is combined from its matrix's columns: nothing M x M is built
        fam = ToeplitzFamily(2, 12, 10)
        seed = fam.seeds(1234, 1235)
        tracemalloc.start()
        try:
            fam.maps_of(seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize(
        "q,k,m", [(2, 2, 1), (2, 6, 3), (3, 4, 2), (4, 3, 1), (4, 4, 2), (5, 3, 2)]
    )
    def test_matrices_give_the_maps(self, q, k, m):
        # A = (X | I) over F_p on the digits of the input index gives the
        # digits of the output index
        fam = ToeplitzFamily(q, k, m)
        p, e = fam.field.prime, fam.field.degree
        seeds = fam.seeds()
        mats = fam.matrices(seeds)
        assert mats.shape == (len(seeds), m * e, k * e)
        np.testing.assert_array_equal(mats[:, :, (k - m) * e :], np.eye(m * e)[None].repeat(len(seeds), 0))
        inputs = np.stack(np.unravel_index(np.arange(q**k), (p,) * (k * e)), axis=1)
        outputs = np.einsum("sij,aj->sai", mats, inputs) % p
        index = outputs @ p ** np.arange(m * e - 1, -1, -1)
        np.testing.assert_array_equal(index + 1, fam.maps_of(seeds))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ToeplitzFamily(2, 2, 2)
        with pytest.raises(ValueError):
            ToeplitzFamily(2, 1, 1)

    def test_alphabet_over_cap_refused_before_labels(self, monkeypatch):
        # 2^21 input symbols exceed DEFAULT_MAX_CELLS: refused before any
        # label is built
        def no_labels(*args):
            raise AssertionError("labels built")

        monkeypatch.setattr(hashing, "product_alphabet", no_labels)
        with pytest.raises(SizeLimitError, match="2097152 input symbols"):
            ToeplitzFamily(2, 21, 1)
        with pytest.raises(SizeLimitError):
            ToeplitzFamily(3, 13, 2)

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
            (0, 2, 2, None),  # no logarithm of 0 or of a negative size
            (2, -4, 2, None),
            # without q: the first of F_2, F_3, F_5, F_7 that fits
            (2, 8, None, (2, 4, 1)),
            (3, 3, None, (3, 2, 1)),
            (25, 5, None, (5, 3, 2)),
            (7, 49, None, (7, 3, 1)),
            (4, 1, None, None),
            (3, 2, None, None),
            (11, 11, None, None),
        ],
    )
    def test_fit_toeplitz(self, m, l, q, shape):
        if shape is None:
            fields = "F_2, F_3, F_5 or F_7" if q is None else f"F_{q}"
            with pytest.raises(ValueError) as err:
                fit_toeplitz(m, l, q)
            assert str(err.value) == f"M={m}, L={l} do not fit a Toeplitz family over {fields}"
        else:
            fam = fit_toeplitz(m, l, q)
            assert (fam.q, fam.k, fam.m) == shape


class FullToeplitzFamily(LinearFamily):
    """Maps x -> T x over F_q (binary by default) by the full m x k Toeplitz
    matrix T of k + m - 1 seed digits: a linear family not in the systematic
    form (X | I), rank-deficient at the all-zero seed."""

    def __init__(self, k: int, m: int, q: int = 2):
        self.field, self.k, self.m = Field(q), k, m
        self.input_alphabet = ToeplitzFamily(q, k, m).input_alphabet
        self.output_size = q**m
        self.seed_len, self.digit_low, self.digit_base = k + m - 1, 0, q

    def matrices(self, seeds):
        e = self.field.degree
        at = (self.k - 1) + np.arange(self.m)[:, None] - np.arange(self.k)
        t = self.field.digit_matrices()[np.asarray(seeds, dtype=np.int64)[:, at]]
        return t.transpose(0, 1, 3, 2, 4).reshape(len(seeds), self.m * e, self.k * e)


class MislabelledToeplitzFamily(ToeplitzFamily):
    """A Toeplitz subclass whose `matrices` are the full T: the layout guard
    of the `kernel_counts` oracle refuses it."""

    def __init__(self, k: int, m: int):
        super().__init__(2, k, m)
        self.seed_len = k + m - 1

    matrices = FullToeplitzFamily.matrices


def all_toeplitz_instances():
    out = []
    for q in (2, 3, 4):
        for k in range(2, 5):
            for m in range(1, k):
                out.append((q, k, m))
    return out


# Every Toeplitz family this module builds that both counts admit, and
# (2, 12, 8) and (3, 5, 3): the cases of the `kernel_counts` oracle.
ORACLE_CASES = sorted(
    set(all_toeplitz_instances())
    | {(2, 5, 2), (2, 6, 1), (2, 6, 3), (2, 6, 5), (2, 8, 3), (2, 12, 4), (2, 12, 9),
       (2, 12, 10), (3, 5, 2), (5, 3, 1), (5, 3, 2), (5, 4, 2), (7, 3, 1), (11, 2, 1),
       (11, 3, 1), (13, 2, 1), (13, 3, 1)}
    | {(2, 12, 8), (3, 5, 3)}
)


class TestConditions:
    @pytest.mark.parametrize("q,k,m", all_toeplitz_instances())
    def test_toeplitz_universal2_and_balanced(self, q, k, m):
        fam = ToeplitzFamily(q, k, m)
        rep = check_universal2(fam)
        assert rep.passed, (q, k, m, rep)
        assert check_balanced(fam).passed

    @pytest.mark.parametrize(
        "q,k,m", all_toeplitz_instances() + [(2, 5, 2), (2, 8, 3), (3, 5, 2), (5, 3, 1), (5, 4, 2)]
    )
    def test_toeplitz_differences_match_the_gram_kernel(self, q, k, m):
        # by differences (the kernel counts) and by pair counts of the same
        # maps as an explicit family: the same report
        fam = ToeplitzFamily(q, k, m)
        explicit = ExplicitFamily(fam.input_alphabet, fam.output_size, fam.maps_of(fam.seeds()))
        assert check_universal2(fam) == check_universal2(explicit)

    @pytest.mark.parametrize(
        "q,k,m", [(2, 4, 2), (2, 8, 3), (3, 4, 2), (4, 3, 1), (5, 3, 2), (2, 6, 1), (2, 3, 2)]
    )
    def test_toeplitz_histogram_matches_the_pair_counts(self, q, k, m):
        # the joint image counts, and the pair counts of the same maps as an
        # explicit family: the same report, bit for bit
        fam = ToeplitzFamily(q, k, m)
        explicit = ExplicitFamily(fam.input_alphabet, fam.output_size, fam.maps_of(fam.seeds()))
        assert repr(check_strongly_universal2(fam)) == repr(check_strongly_universal2(explicit))

    def test_toeplitz_strong_universality_refused_past_the_pair_cap(self):
        # the histogram's own cell cap: 4096 x 512 cells
        with pytest.raises(SizeLimitError, match=r"2097152 histogram cells \(4096 symbols x 512 outputs\) exceed cap 1048576"):
            check_strongly_universal2(ToeplitzFamily(2, 12, 9))

    @pytest.mark.parametrize("q,k,m", ORACLE_CASES)
    def test_collision_counts_are_the_kernel_counts(self, q, k, m):
        # the kernel column of the transform of the row-space gathers and
        # the kernel enumerator it replaced: the same integers
        fam = ToeplitzFamily(q, k, m)
        assert_bit_equal(fam.image_counts(joint=False)[:, 0], kernel_counts(fam))

    @pytest.mark.parametrize("q,k,m", ORACLE_CASES)
    def test_joint_image_counts_are_the_map_sweep(self, q, k, m):
        # both transforms of the joint gathers and the map sweep they
        # replaced: the same integers, or a refusal past the histogram cap
        fam = ToeplitzFamily(q, k, m)
        if fam.input_alphabet.size * fam.output_size > DEFAULT_MAX_CELLS:
            with pytest.raises(SizeLimitError, match="histogram cells"):
                fam.image_counts(joint=True)
        else:
            assert_bit_equal(fam.image_counts(joint=True), image_counts_by_maps(fam))

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("k,m", [(3, 1), (3, 2), (4, 2)])
    def test_joint_image_counts_of_any_layout(self, q, k, m):
        # full m x k Toeplitz matrices (rank-deficient at the zero seed), and
        # a Toeplitz subclass whose matrices are those: the map sweep's counts
        fam = FullToeplitzFamily(k, m, q)
        assert_bit_equal(fam.image_counts(joint=True), image_counts_by_maps(fam))
        if q == 2:
            fam = MislabelledToeplitzFamily(k, m)
            assert_bit_equal(fam.image_counts(joint=True), image_counts_by_maps(fam))

    def test_strong_check_reads_no_map(self, monkeypatch):
        def no_maps(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr(hashing.HashFamily, "iter_maps", no_maps)
        monkeypatch.setattr(LinearFamily, "maps_of", no_maps)
        for q, k, m in [(2, 8, 3), (3, 5, 2), (4, 3, 1), (2, 16, 4)]:
            fam = ToeplitzFamily(q, k, m)
            rep = check_strongly_universal2(fam)
            # every seed sends a symbol of the identity block to one output
            s, big_m = fam.seed_count, fam.output_size
            assert not rep.passed
            assert rep.max_pair_deviation == (s - s / (big_m * big_m)) / s

    def test_collision_counts_are_capped(self, monkeypatch):
        # 5 x 2^5 transform units, then 16 seeds x 4 outputs x 2 digits
        fam = ToeplitzFamily(2, 5, 2)
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 288)
        assert check_universal2(fam).passed
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 287)
        with pytest.raises(SizeLimitError, match=r"288 transform units \(16 seeds\) exceed cap 287"):
            check_universal2(fam)

    def test_map_cells_are_capped(self, monkeypatch):
        fam = ToeplitzFamily(2, 5, 2)  # 16 seeds x 32 symbols
        monkeypatch.setattr(hashing, "MAP_CELL_LIMIT", 512)
        assert sum(len(maps) for maps in fam.iter_maps()) == 16
        monkeypatch.setattr(hashing, "MAP_CELL_LIMIT", 511)
        with pytest.raises(SizeLimitError, match="512 map cells exceed cap 511"):
            list(fam.iter_maps())

    def test_strong_check_is_capped_by_both_transforms(self, monkeypatch):
        # (5 + 2) digits x 2^5 x 4 outputs, then 16 seeds x 4 outputs x 2 digits
        fam = ToeplitzFamily(2, 5, 2)
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 1024)
        assert not check_strongly_universal2(fam).passed
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 1023)
        with pytest.raises(SizeLimitError, match=r"1024 transform units \(16 seeds\) exceed cap 1023"):
            check_strongly_universal2(fam)

    def test_balance_is_capped_by_its_route(self, monkeypatch):
        # a linear family by the transform: 5 x 2^5, then 16 seeds x 4 x 2
        fam = ToeplitzFamily(2, 5, 2)
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 288)
        assert check_balanced(fam).passed
        monkeypatch.setattr(hashing, "TRANSFORM_LIMIT", 287)
        with pytest.raises(SizeLimitError, match=r"288 transform units \(16 seeds\) exceed cap 287"):
            check_balanced(fam)
        # the same maps as an explicit family by the maps: 16 seeds x 32 symbols
        explicit = ExplicitFamily(fam.input_alphabet, fam.output_size, fam.maps_of(fam.seeds()))
        monkeypatch.setattr(hashing, "MAPS_LIMIT", 512)
        assert check_balanced(explicit).passed
        monkeypatch.setattr(hashing, "MAPS_LIMIT", 511)
        with pytest.raises(SizeLimitError, match=r"512 map cells \(16 seeds\) exceed cap 511"):
            check_balanced(explicit)

    @pytest.mark.parametrize("k,m", [(4, 2), (5, 2), (6, 3)])
    def test_kernel_counts_need_the_systematic_form(self, k, m):
        # the oracle reads the kernel as {(x, -X x)}, which a full Toeplitz
        # matrix does not have; the transform counts take any layout, so
        # every linear family, a mislabelled Toeplitz one too, goes by them
        fam = FullToeplitzFamily(k, m)
        explicit = ExplicitFamily(fam.input_alphabet, fam.output_size, fam.maps_of(fam.seeds()))
        report = check_universal2(fam)
        assert report == check_universal2(explicit)
        assert report.worst_pair is not None
        assert check_universal2(MislabelledToeplitzFamily(k, m)) == report
        with pytest.raises(ValueError, match=r"\(X \| I\)"):
            kernel_counts(MislabelledToeplitzFamily(k, m))

    def test_toeplitz_2_12_4_within_a_second(self):
        start = time.perf_counter()
        rep = check_universal2(ToeplitzFamily(2, 12, 4))
        assert time.perf_counter() - start < 1.0
        assert rep.passed and rep.max_collision == 1 / 16

    def test_toeplitz_2_20_1_runs_exactly(self):
        rep = check_universal2(ToeplitzFamily(2, 20, 1))
        assert rep.passed and rep.max_collision == 0.5

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
        with pytest.raises(SizeLimitError):
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


def small_families():
    alph = range_alphabet(3)
    return [
        FullyRandomFamily(alph, 2),
        ToeplitzFamily(3, 3, 1),
        ToeplitzFamily(4, 3, 2),
        ExplicitFamily(alph, 2, [[1, 2, 1], [2, 2, 1], [1, 1, 2], [2, 1, 1]]),
    ]


def _ones_pushforward(fam):
    return fam.pushforward_blocks(np.ones(fam.input_alphabet.size))


class TestSeedInterface:
    @pytest.mark.parametrize("fam", small_families(), ids=lambda f: type(f).__name__)
    def test_seeds_follow_product_order(self, fam):
        digits = range(fam.digit_low, fam.digit_low + fam.digit_base)
        expect = [list(s) for s in itertools.product(digits, repeat=fam.seed_len)]
        assert fam.seeds().tolist() == expect
        assert fam.seeds().dtype == np.int64
        assert fam.seeds(1, 3).tolist() == expect[1:3]
        assert len(expect) == fam.seed_count
        with pytest.raises(ValueError):
            fam.seeds(0, fam.seed_count + 1)
        with pytest.raises(ValueError):
            fam.seeds(-1, 1)
        assert fam.seeds(2, 2).shape == (0, fam.seed_len)

    def test_seeds_past_int64_are_refused(self):
        with pytest.raises(ValueError):
            FullyRandomFamily(range_alphabet(40), 4).seeds(0, 5)
        # 4^31 = 2^62 seeds still have int64 ranks
        assert FullyRandomFamily(range_alphabet(31), 4).seeds(1, 2).tolist() == [[1] * 30 + [2]]

    @pytest.mark.parametrize("fam", small_families(), ids=lambda f: type(f).__name__)
    def test_as_map_is_maps_of_one_seed(self, fam):
        seeds = fam.seeds()
        maps = fam.maps_of(seeds)
        for seed, f_map in zip(seeds.tolist(), maps):
            assert fam.as_map(tuple(seed)).tolist() == f_map.tolist()
        assert maps.shape == (fam.seed_count, fam.input_alphabet.size)
        assert maps.min() >= 1 and maps.max() <= fam.output_size

    @pytest.mark.parametrize("fam", small_families(), ids=lambda f: type(f).__name__)
    def test_as_map_checks_the_seed(self, fam):
        seed = fam.seeds(0, 1)[0]
        with pytest.raises(ValueError):
            fam.as_map(tuple(seed) + (fam.digit_low,))
        for bad in (fam.digit_low - 1, fam.digit_low + fam.digit_base):
            wrong = seed.copy()
            wrong[-1] = bad
            with pytest.raises(ValueError):
                fam.as_map(wrong)

    @pytest.mark.parametrize("fam", small_families(), ids=lambda f: type(f).__name__)
    def test_iter_maps_blocks(self, fam, monkeypatch):
        every = fam.maps_of(fam.seeds())
        n = fam.input_alphabet.size
        for cells in (1, 2 * n + 1, 5 * n, 1 << 19):
            monkeypatch.setattr(dists, "BLOCK_CELLS", cells)
            blocks = list(fam.iter_maps())
            assert all(b.size <= max(cells, n) for b in blocks)
            np.testing.assert_array_equal(np.concatenate(blocks), every)

    @pytest.mark.parametrize("fam", small_families(), ids=lambda f: type(f).__name__)
    def test_sample_seed_is_one_integers_call(self, fam):
        seeds = [fam.sample_seed(np.random.default_rng(5)) for _ in range(2)]
        low, high = fam.digit_low, fam.digit_low + fam.digit_base
        expect = np.random.default_rng(5).integers(low, high, size=fam.seed_len)
        assert seeds[0] == seeds[1] == tuple(int(d) for d in expect)
        assert all(isinstance(d, int) for d in seeds[0])

    @pytest.mark.parametrize("base", [1, 2, 3, 4, 5, 7, 1000, 2**32 - 1, 2**32, 2**33])
    def test_block_draws_are_the_sample_seed_stream(self, base, monkeypatch):
        # a draw's blocks hold the seeds of one `sample_seed` call each, in
        # order, however the blocks split, and leave the generator in the
        # same state
        for length, count, cells in ((1, 1, 1), (3, 100, 7), (256, 9, 1000), (5, 40, 1 << 19)):
            monkeypatch.setattr(dists, "BLOCK_CELLS", cells)
            fam = FullyRandomFamily(range_alphabet(length), base)
            rng, ref = np.random.default_rng(base), np.random.default_rng(base)
            drawn = list(fam.seed_blocks((rng, count), length))
            assert all(len(b) <= max(1, cells // length) for b in drawn)
            expect = [fam.sample_seed(ref) for _ in range(count)]
            assert [tuple(s) for b in drawn for s in b.tolist()] == expect
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_explicit_seed_is_a_one_tuple(self):
        maps = [[1, 2, 1], [2, 2, 1], [1, 1, 2]]
        fam = ExplicitFamily(range_alphabet(3), 2, maps)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            seed = fam.sample_seed(rng)
            assert seed == (int(ref.integers(0, 3)),)
            assert fam.as_map(seed).tolist() == maps[seed[0]]
        assert fam.seeds().tolist() == [[0], [1], [2]]

    def test_explicit_family_needs_a_map(self):
        with pytest.raises(ValueError):
            ExplicitFamily(range_alphabet(3), 2, [])

    @pytest.mark.parametrize(
        "refuse, shown",
        [(lambda: _ones_pushforward(FullyRandomFamily(range_alphabet(10), 8)),
          # 8^10 seeds x 10 symbols
          "10737418240 map cells (1073741824 seeds) exceed cap 400000000"),
         (lambda: _ones_pushforward(ToeplitzFamily(2, 17, 9)),
          # 17 x 2^17 + 2^16 seeds x 2^9 x 9 units
          "304218112 transform units (65536 seeds) exceed cap 250000000"),
         # 8^7 seeds: under every work cap of these sweeps, past ENUMERATION_LIMIT
         *[(lambda sweep=sweep: sweep(FullyRandomFamily(range_alphabet(7), 8)),
            "2097152 seeds exceed cap 2000000")
           for sweep in (lambda f: list(f.iter_maps()), _ones_pushforward, check_universal2,
                         check_strongly_universal2, check_balanced)],
         (lambda: expected_d1(SubDist.uniform(range_alphabet(3)),
                              FullyRandomFamily(range_alphabet(3), 2), mode="mc", n_samples=2_000_001),
          "2000001 samples exceed cap 2000000"),
         # 20 x 2^20 + 2^19 seeds x 2^12 outputs x 12 digits
         (lambda: check_universal2(ToeplitzFamily(2, 20, 12)),
          "25790775296 transform units (524288 seeds) exceed cap 250000000")],
        ids=["maps", "transform", "seeds-iter_maps", "seeds-pushforward_blocks", "seeds-universal2",
             "seeds-strongly_universal2", "seeds-balanced", "samples", "image_counts"],
    )
    def test_pushforward_blocks_refuse_when_called(self, refuse, shown, monkeypatch):
        # every sweep is refused at the call, before any block or seed is built
        def no_seeds(*args):
            raise AssertionError("seeds built before the caps were checked")

        monkeypatch.setattr(HashFamily, "seeds", no_seeds)
        monkeypatch.setattr(HashFamily, "draw_seeds", no_seeds)
        with pytest.raises(SizeLimitError) as err:
            refuse()
        assert str(err.value) == shown


def pair_loop_reports(maps: np.ndarray, m: int, symbols):
    """The three checkers by direct loops over seeds and pairs."""
    s, n = maps.shape
    worst, best = None, -1
    pair_dev = single_dev = 0.0
    for a in range(n):
        hist = np.zeros(m)
        for row in maps:
            hist[row[a] - 1] += 1
        single_dev = max(single_dev, float(np.abs(hist - s / m).max()) / s)
        for b in range(a + 1, n):
            hits = sum(int(row[a] == row[b]) for row in maps)
            if hits > best:
                best, worst = hits, (symbols[a], symbols[b])
            joint = np.zeros((m, m))
            for row in maps:
                joint[row[a] - 1, row[b] - 1] += 1
            pair_dev = max(pair_dev, float(np.abs(joint - s / m**2).max()) / s)
    bad = None
    for idx, row in enumerate(maps):
        sizes = [int(np.sum(row == v)) for v in range(1, m + 1)]
        if bad is None and min(sizes) != max(sizes):
            bad = (idx, tuple(sizes))
    max_coll = best / s if n > 1 else 0.0
    return max_coll, worst, single_dev, pair_dev, bad


def random_explicit_families():
    rng = np.random.default_rng(77)
    out = []
    for _ in range(12):
        n, m, s = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        out.append(ExplicitFamily(range_alphabet(n), m, rng.integers(1, m + 1, size=(s, n))))
    # families that pass: every map (strongly universal), a Toeplitz family's maps
    full = FullyRandomFamily(range_alphabet(3), 2)
    out.append(ExplicitFamily(range_alphabet(3), 2, full.maps_of(full.seeds())))
    toep = ToeplitzFamily(2, 3, 1)
    out.append(ExplicitFamily(range_alphabet(8), 2, toep.maps_of(toep.seeds())))
    return out


class TestCheckersAgainstPairLoops:
    @pytest.mark.parametrize("cells", [1 << 19, 7])
    def test_random_explicit_families(self, cells, monkeypatch):
        monkeypatch.setattr(dists, "BLOCK_CELLS", cells)
        outcomes = set()
        for fam in random_explicit_families():
            maps = fam.maps_of(fam.seeds())
            m = fam.output_size
            max_coll, worst, single_dev, pair_dev, bad = pair_loop_reports(
                maps, m, fam.input_alphabet.symbols
            )
            rep1 = check_universal2(fam)
            assert rep1.max_collision == max_coll
            assert rep1.worst_pair == worst
            assert rep1.passed == (max_coll <= 1.0 / m + 1e-12)
            rep2 = check_balanced(fam)
            assert rep2.passed == (bad is None)
            assert (rep2.bad_seed_index, rep2.preimage_sizes) == (bad or (None, None))
            rep3 = check_strongly_universal2(fam)
            assert rep3.max_single_deviation == single_dev
            assert rep3.max_pair_deviation == pair_dev
            outcomes.add((rep1.passed, rep2.passed, rep3.passed))
        # both verdicts of every checker occur
        for i in range(3):
            assert {o[i] for o in outcomes} == {True, False}

    def test_no_collision_names_two_distinct_symbols(self):
        fam = ExplicitFamily(range_alphabet(3), 3, [[1, 2, 3], [2, 3, 1]])
        rep = check_universal2(fam)
        assert rep.max_collision == 0.0
        assert rep.worst_pair == ("1", "2")

    def test_toeplitz_checks_split_into_blocks(self, monkeypatch):
        fam = ToeplitzFamily(2, 5, 2)
        whole = (check_universal2(fam), check_balanced(fam), check_strongly_universal2(fam))
        monkeypatch.setattr(dists, "BLOCK_CELLS", 3 * 32 + 5)
        split = (check_universal2(fam), check_balanced(fam), check_strongly_universal2(fam))
        assert split == whole


def balance_families():
    """(id, family) of every family this module builds that the maps oracle
    sweeps, rank-deficient full-Toeplitz families over five fields, an
    explicit family holding one unbalanced map, and fully random families."""
    out = [(f"toeplitz{c}", ToeplitzFamily(*c)) for c in ORACLE_CASES]
    for k, m in [(4, 2), (5, 2), (6, 3)]:
        out += [(f"full{k, m}", FullToeplitzFamily(k, m)),
                (f"mislabelled{k, m}", MislabelledToeplitzFamily(k, m))]
    out += [(f"full-q{q}", fam) for q, fam in rank_deficient_families()]
    out += [(f"small{i}", fam) for i, fam in enumerate(small_families())]
    out += [(f"explicit{i}", fam) for i, fam in enumerate(random_explicit_families())]
    out.append(("one-unbalanced", one_unbalanced_family()))
    for size, m in [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 3), (2, 5)]:
        out.append((f"fullrandom{size, m}", FullyRandomFamily(range_alphabet(size), m)))
    return out


def one_unbalanced_family():
    """Four maps into 2 outputs; the map of seed 2 has preimages of 3 and 1."""
    maps = [[1, 2, 1, 2], [2, 1, 2, 1], [1, 1, 2, 1], [2, 2, 1, 1]]
    return ExplicitFamily(range_alphabet(4), 2, maps)


def rank_deficient_families():
    """(q, full-Toeplitz family over F_q): each has the all-zero matrix."""
    return [(2, FullToeplitzFamily(4, 2, 2)), (3, FullToeplitzFamily(3, 2, 3)),
            (4, FullToeplitzFamily(3, 2, 4)), (5, FullToeplitzFamily(3, 1, 5)),
            (7, FullToeplitzFamily(2, 1, 7))]


class TestBalanceByPushforward:
    @pytest.mark.parametrize("fam", [pytest.param(f, id=i) for i, f in balance_families()])
    def test_equals_the_maps_sweep(self, fam):
        assert check_balanced(fam) == balanced_by_maps(fam)

    @pytest.mark.parametrize(
        "q, fam", [pytest.param(q, f, id=f"q{q}") for q, f in rank_deficient_families()]
    )
    def test_rank_deficient_seed_comes_first(self, q, fam):
        # the all-zero seed, rank 0, sends every input to output 1
        rep = check_balanced(fam)
        assert (rep.passed, rep.bad_seed_index) == (False, 0)
        assert rep.preimage_sizes == (q**fam.k,) + (0,) * (fam.output_size - 1)

    def test_linear_balance_reads_no_map(self, monkeypatch):
        def no_maps(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr(ToeplitzFamily, "maps_of", no_maps)
        assert check_balanced(ToeplitzFamily(2, 12, 4)).passed
        start = time.perf_counter()
        assert check_balanced(ToeplitzFamily(2, 14, 4)).passed
        assert time.perf_counter() - start < 0.5

    def test_fully_random_balance_memory(self):
        # one symbol into 4096 outputs: 4096 seeds, a 4096-cell histogram
        # each, swept in blocks rather than one 4096 x 4096 array
        fam = FullyRandomFamily(range_alphabet(1), 4096)
        tracemalloc.start()
        try:
            rep = check_balanced(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == hashing.BalancedReport(False, 0, (1,) + (0,) * 4095)
        assert peak < 32 << 20, peak
