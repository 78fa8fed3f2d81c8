import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import secexp
from secexp.dists import (
    BLOCK_CELLS,
    Alphabet,
    AlphabetMismatchError,
    JointDist,
    SizeLimitError,
    SubDist,
    TypeClass,
    blocks,
    capped_power,
    compositions,
    d1_uniformity,
    enumerate_types,
    iid_extend,
    kl_divergence,
    kron_power,
    l1_distance,
    l2_distance,
    product_alphabet,
    range_alphabet,
    renyi,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
    smooth_truncate,
    strings_by_type,
    tilt,
)
from secexp.wiretap import Channel, WiretapCode

from conftest import assert_bit_equal, kron_loop, random_subdist


def subdist(*mass):
    symbols = tuple(chr(ord("a") + i) for i in range(len(mass)))
    return SubDist(Alphabet(symbols), np.array(mass, dtype=float))


_AB = Alphabet(("a", "b"))
# each constructor of a mass array: a valid 2-symbol array, the spot of a 0
# in it, and the field that keeps it
MASS_BUILDERS = {
    "mass": (lambda v: SubDist(_AB, v), [1.0, 0.0], (1,), "mass"),
    "joint mass": (lambda v: JointDist(_AB, _AB, v), [[1.0, 0.0], [0.0, 0.0]], (0, 1), "mass"),
    "channel matrix": (lambda v: Channel(_AB, _AB, v), np.eye(2), (0, 1), "matrix"),
    "encoder matrix": (lambda v: WiretapCode(2, v, [1, 2]), np.eye(2), (0, 1), "encoders"),
}


class TestConstruction:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            subdist(0.5, -0.1)

    def test_rejects_total_above_one(self):
        with pytest.raises(ValueError):
            subdist(0.7, 0.5)

    @pytest.mark.parametrize("mass", [(np.nan, 0.5), (0.2, np.nan), (np.nan, np.nan)])
    def test_rejects_nan_mass(self, mass):
        with pytest.raises(ValueError):
            subdist(*mass)

    @pytest.mark.parametrize("mass", [[[np.nan, 0.5], [0.25, 0.25]], [[0.5, 0.5], [0.0, np.nan]]])
    def test_joint_rejects_nan_mass(self, mass):
        ab = Alphabet(("a", "b"))
        with pytest.raises(ValueError):
            JointDist(ab, ab, mass)

    @pytest.mark.parametrize("what", MASS_BUILDERS)
    def test_one_message_form_for_a_bad_mass_array(self, what):
        build, valid, spot, field = MASS_BUILDERS[what]
        with pytest.raises(ValueError) as err:
            build(np.full((3, 2), 0.1))
        assert str(err.value) == f"{what} has shape (3, 2), expected {np.shape(valid)}"
        for bad, shown in [(np.nan, "must be finite"), (np.inf, "must be finite"),
                           (-np.inf, "must be finite"), (-1e-11, "has a negative entry")]:
            arr = np.array(valid)
            arr[spot] = bad
            with pytest.raises(ValueError) as err:
                build(arr)
            assert str(err.value) == f"{what} {shown}"
        arr = np.array(valid)
        arr[spot] = -1e-13
        got = getattr(build(arr), field)
        assert got[spot] == 0.0 and not got.flags.writeable
        np.testing.assert_array_equal(got, valid)

    def test_total_above_one_message(self):
        with pytest.raises(ValueError, match=r"^total mass 1.5 exceeds 1$"):
            subdist(1.0, 0.5)

    def test_an_overflowing_total_is_above_one(self):
        # math.fsum raises OverflowError on a sum past the largest float
        with pytest.raises(ValueError, match=r"^total mass inf exceeds 1$"):
            subdist(1e308, 1e308)
        ab = Alphabet(("a", "b"))
        with pytest.raises(ValueError, match=r"^joint mass sums to inf, expected 1$"):
            JointDist(ab, ab, [[1e308, 0.0], [1e308, 0.0]])

    def test_one_slack_for_a_probability_distribution(self):
        assert subdist(0.5, 0.5 - 5e-10).is_probability()
        assert not subdist(0.5, 0.5 - 2e-9).is_probability()

    def test_one_mass_check_and_one_probability_test(self):
        # the negativity check, the test of a total of 1 and the correctly
        # rounded sum (the kernel behind `dists.fsum`) are written once
        src = Path(secexp.__file__).parent
        for pattern in (".min(initial=0.0) <", "total - 1.0", "math.fsum("):
            named = sorted(f.name for f in src.glob("*.py") if pattern in f.read_text())
            assert named == ["dists.py"], pattern

    def test_subdistribution_total(self):
        p = subdist(0.3, 0.3)
        assert p.total == pytest.approx(0.6, abs=1e-15)

    def test_alphabet_distinct(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))


class TestL1:
    def test_identity(self):
        p = subdist(0.5, 0.25, 0.25)
        assert l1_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        assert l1_distance(subdist(1.0, 0.0), subdist(0.0, 1.0)) == 2.0

    def test_hand_value_against_uniform(self):
        p = subdist(0.5, 0.25, 0.25)
        u = SubDist.uniform(p.alphabet)
        assert l1_distance(p, u) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            l1_distance(subdist(1.0), SubDist(Alphabet(("z",)), [1.0]))


class TestD1Uniformity:
    def test_uniform_is_zero(self):
        assert d1_uniformity(SubDist.uniform(Alphabet(("a", "b", "c", "d")))) == 0.0

    def test_point_mass_on_two(self):
        assert d1_uniformity(subdist(1.0, 0.0)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert d1_uniformity(subdist(0.5, 0.25, 0.25)) == pytest.approx(1.0 / 3.0)


class TestL2:
    def test_identity(self):
        p = subdist(0.2, 0.8)
        assert l2_distance(p, p) == 0.0

    def test_disjoint(self):
        assert l2_distance(subdist(1.0, 0.0), subdist(0.0, 1.0)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_collision_identity_hand_value(self):
        p = subdist(0.5, 0.25, 0.25)
        d2 = l2_distance(p, p.scaled_uniform())
        assert d2**2 == pytest.approx(0.375 - 1.0 / 3.0, abs=1e-15)


class TestRenyi:
    def test_uniform_value(self):
        for m in (2, 3, 5):
            u = SubDist.uniform(Alphabet(tuple(str(i) for i in range(m))))
            for s in (0.25, 0.5, 1.0):
                assert renyi_tilde(u, s) == pytest.approx(s * math.log(m), abs=1e-12)
                assert renyi(u, s) == pytest.approx(math.log(m), abs=1e-12)

    def test_bernoulli_order2(self, bern02):
        assert renyi_tilde(bern02, 1.0) == pytest.approx(-math.log(0.68), abs=1e-12)

    def test_small_s_approaches_shannon(self, bern02):
        # reported reference: h(0.2) = 0.500402 nats
        assert shannon_entropy(bern02) == pytest.approx(0.500402, abs=1e-6)
        assert renyi(bern02, 1e-9) == pytest.approx(shannon_entropy(bern02), abs=1e-6)

    def test_empty_support_raises(self):
        with pytest.raises(ValueError):
            renyi_tilde(subdist(0.0, 0.0), 0.5)

    def test_invalid_order(self, bern02):
        with pytest.raises(ValueError):
            renyi_tilde(bern02, -1.0)

    def test_orders_whose_summands_underflow(self, flat4096):
        # -(101 log max P + log sum (P / max P)^101)
        assert renyi_tilde(flat4096, 100.0) == pytest.approx(794.6713919004532, rel=1e-12)
        peak = float(flat4096.mass.max())
        ratios = (flat4096.mass / peak).tolist()
        orders = np.array([0.5, 88.0, 89.0, 92.0, 93.2, 100.0, 1e6])
        values = renyi_tilde(flat4096, orders)
        for s, value in zip(orders.tolist(), values.tolist()):
            factored = -(1.0 + s) * math.log(peak) - math.log(math.fsum(r ** (1.0 + s) for r in ratios))
            assert value == pytest.approx(factored, rel=1e-13)
            assert value == renyi_tilde(flat4096, s)
        # orders with a normal largest summand keep the sum of the powers, bit for bit
        kept = [-math.log(math.fsum(flat4096.mass ** (1.0 + s))) for s in orders[:2]]
        assert values[:2].tobytes() == np.array(kept).tobytes()


class TestRenyiDerivative:
    def test_uniform(self):
        u = SubDist.uniform(Alphabet(("a", "b", "c")))
        for s in (0.0, 0.5, 1.0):
            assert renyi_tilde_derivative(u, s) == pytest.approx(math.log(3.0))

    def test_reference_value(self, bern02):
        assert renyi_tilde_derivative(bern02, 1.0) == pytest.approx(0.30469, abs=1e-5)

    def test_bernoulli_half_any_s(self):
        p = SubDist.bernoulli(0.5)
        assert renyi_tilde_derivative(p, 0.37) == pytest.approx(math.log(2.0))

    def test_matches_finite_difference(self, bern02, skew3):
        h = 1e-5
        for p in (bern02, skew3):
            for s in (0.1, 0.5, 0.9):
                fd = (renyi_tilde(p, s + h) - renyi_tilde(p, s - h)) / (2 * h)
                assert renyi_tilde_derivative(p, s) == pytest.approx(fd, abs=1e-6)

    def test_where_the_summands_underflow(self, flat4096):
        ratios = flat4096.mass / flat4096.mass.max()
        for s in (92.0, 100.0):
            w = (ratios ** (1.0 + s)).tolist()
            want = -math.fsum(x * math.log(m) for x, m in zip(w, flat4096.mass.tolist())) / math.fsum(w)
            assert renyi_tilde_derivative(flat4096, s) == pytest.approx(want, rel=1e-13)
        assert renyi_tilde_derivative(subdist(1e-170, 1e-170), 1.0) == pytest.approx(170.0 * math.log(10.0))


class TestKL:
    def test_identity(self, bern02):
        assert kl_divergence(bern02, bern02) == 0.0

    def test_hand_value(self):
        q = SubDist.bernoulli(0.5)
        p = SubDist.bernoulli(0.2)
        assert kl_divergence(q, p) == pytest.approx(0.5 * math.log(0.25 / 0.16))

    def test_point_mass_vs_uniform(self):
        alph = Alphabet(("a", "b", "c", "d"))
        q = SubDist.point_mass(alph, "b")
        assert kl_divergence(q, SubDist.uniform(alph)) == pytest.approx(math.log(4.0))

    def test_support_violation_is_infinite(self):
        q = SubDist.bernoulli(0.5)
        p = SubDist(q.alphabet, [1.0, 0.0])
        assert kl_divergence(q, p) == math.inf

    def test_requires_probability(self):
        with pytest.raises(ValueError):
            kl_divergence(subdist(0.25, 0.25), SubDist.bernoulli(0.5))


class TestTilt:
    def test_zero_is_identity(self, skew3):
        t = tilt(skew3, 0.0)
        np.testing.assert_allclose(t.mass, skew3.mass, atol=1e-15)

    def test_uniform_fixed_point(self):
        u = SubDist.uniform(Alphabet(("a", "b", "c")))
        for s in (-0.5, 0.3, 2.0):
            np.testing.assert_allclose(tilt(u, s).mass, u.mass, atol=1e-15)

    def test_hand_value(self, bern02):
        t = tilt(bern02, 1.0)
        np.testing.assert_allclose(t.mass, [0.04 / 0.68, 0.64 / 0.68], atol=1e-15)


class TestSmoothTruncate:
    def test_high_threshold_keeps_everything(self, skew3):
        # negative rate puts the threshold above 1, so the heavy set is empty
        kept, tail = smooth_truncate(skew3, -1.0)
        assert tail == 0.0
        np.testing.assert_allclose(kept.mass, skew3.mass)

    def test_threshold_past_the_float_range_keeps_everything(self, skew3):
        # e^1000 overflows a float; no mass exceeds 1, so nothing is removed
        kept, tail = smooth_truncate(skew3, -1000.0)
        assert tail == 0.0
        assert kept.mass.tobytes() == skew3.mass.tobytes()

    def test_tiny_threshold_strips_everything(self, skew3):
        kept, tail = smooth_truncate(skew3, 50.0)
        assert tail == pytest.approx(1.0)
        assert kept.total == 0.0

    def test_zero_rate_no_atom_above_one(self, skew3):
        kept, tail = smooth_truncate(skew3, 0.0)
        assert tail == 0.0
        np.testing.assert_allclose(kept.mass, skew3.mass)

    def test_hand_value(self, skew3):
        # threshold e^(-ln 3) = 1/3 removes only the 0.5 atom (strict >)
        kept, tail = smooth_truncate(skew3, math.log(3.0))
        assert tail == pytest.approx(0.5)
        assert kept.total == pytest.approx(0.5)
        assert l1_distance(skew3, kept) == pytest.approx(tail)


class TestIidExtend:
    def test_n1_identity(self, bern02):
        p = iid_extend(bern02, 1)
        np.testing.assert_allclose(p.mass, bern02.mass)

    def test_bernoulli_square(self, bern02):
        p = iid_extend(bern02, 2)
        np.testing.assert_allclose(p.mass, [0.04, 0.16, 0.16, 0.64], atol=1e-15)
        assert p.alphabet.symbols == ("00", "01", "10", "11")

    def test_uniform_cube(self):
        u = SubDist.uniform(Alphabet(("0", "1")))
        p = iid_extend(u, 3)
        np.testing.assert_allclose(p.mass, np.full(8, 0.125))

    def test_size_limit(self):
        # 4^11 = 2^22 cells pass the 2^20 cap: refused before any product
        u = SubDist.uniform(Alphabet(tuple("abcd")))
        with pytest.raises(SizeLimitError, match="4194304 cells exceed cap 1048576"):
            iid_extend(u, 11)
        assert iid_extend(u, 10).mass.size == 1 << 20
        with pytest.raises(ValueError, match="n must be >= 1"):
            iid_extend(u, 0)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_the_kron_loop(self, q, n):
        p = random_subdist(np.random.default_rng(10 * q + n), q, total=1.0)
        ext = iid_extend(p, n)
        assert_bit_equal(ext.mass, kron_loop(p.mass, n))
        assert ext.alphabet == product_alphabet(p.alphabet, n)

    def test_kron_power_of_a_matrix(self):
        a = np.arange(6.0).reshape(2, 3)
        assert_bit_equal(kron_power(a, 3, "cells"), kron_loop(a, 3))
        with pytest.raises(SizeLimitError, match="6\\^9 matrix cells exceed"):
            kron_power(a, 9, "matrix cells")


class TestProductAlphabet:
    def test_labels_with_the_separator_still_collide(self):
        # "a|" x "b" and "a" x "|b" both read "a||b"
        with pytest.raises(ValueError, match="distinct"):
            product_alphabet(Alphabet(("a", "b", "a|", "|b")), 2)

    def test_labels_without_the_separator(self):
        alph = product_alphabet(Alphabet(("ab", "c")), 2)
        assert alph.symbols == ("ab|ab", "ab|c", "c|ab", "c|c")
        assert alph == Alphabet(("ab|ab", "ab|c", "c|ab", "c|c"))
        assert [alph.index(s) for s in alph.symbols] == [0, 1, 2, 3]
        with pytest.raises(KeyError):
            alph.index("abc")

    def test_one_character_labels(self):
        alph = product_alphabet(Alphabet(("0", "1", "2")), 3)
        assert alph.size == 27 and len(set(alph.symbols)) == 27
        assert alph.index("120") == 15


class TestBlocks:
    @pytest.mark.parametrize(
        "count, cells", [(0, 5), (1, 1 << 20), (10, 1), (1000, 1 << 10), (7, 1 << 17), (9, 3 << 17)]
    )
    def test_slices_cover_the_range_in_order(self, count, cells):
        got = list(blocks(count, cells))
        step = max(1, BLOCK_CELLS // cells)
        assert [i for b in got for i in range(count)[b]] == list(range(count))
        assert all(1 <= b.stop - b.start <= step for b in got)
        assert all(b.stop - b.start == step for b in got[:-1])

    def test_only_dists_names_the_block_budget(self):
        # every sweep cuts its work through dists.blocks, so one patch of
        # dists.BLOCK_CELLS reaches them all
        src = Path(secexp.__file__).parent
        named = sorted(f.name for f in src.glob("*.py") if "BLOCK_CELLS" in f.read_text())
        assert named == ["dists.py"]


class TestCappedPower:
    def test_powers_up_to_the_cap(self):
        assert capped_power(2, 20, "cells") == 1 << 20
        assert capped_power(1, 10**18, "cells") == 1
        assert capped_power(0, 3, "cells") == 0

    @pytest.mark.parametrize(
        "base, n, message",
        [(2, 21, "2097152 cells exceed cap 1048576"),
         (3, 10**18, "3^1000000000000000000 cells exceed cap 1048576"),
         (10**30, 1, f"{10**30} cells exceed cap 1048576")],
    )
    def test_refused_at_the_first_partial_product_over_the_cap(self, base, n, message):
        with pytest.raises(SizeLimitError) as err:
            capped_power(base, n, "cells")
        assert str(err.value) == message


class TestTypes:
    def test_binary_n2(self):
        alph = Alphabet(("0", "1"))
        types = enumerate_types(alph, 2)
        assert [t.counts for t in types] == [(0, 2), (1, 1), (2, 0)]

    def test_count(self):
        alph = Alphabet(("a", "b", "c"))
        types = enumerate_types(alph, 4)
        assert len(types) == math.comb(4 + 2, 2)

    def test_multiplicity(self):
        alph = Alphabet(("0", "1"))
        t = TypeClass(alph, (1, 3))
        assert t.multiplicity() == 4

    def test_class_probability(self, bern02):
        t = TypeClass(bern02.alphabet, (1, 1))
        assert t.prob(bern02) == pytest.approx(2 * 0.2 * 0.8, abs=1e-15)

    def test_probabilities_sum_exactly(self, bern02, skew3):
        # multinomial identity: sum over types equals (sum of masses)^n as
        # exact rationals (float masses are dyadic, so this is exact)
        for p, n in ((bern02, 6), (skew3, 4)):
            total = sum(
                (t.exact_prob(p) for t in enumerate_types(p.alphabet, n)),
                Fraction(0),
            )
            mass_total = sum(Fraction(float(x)) for x in p.mass)
            assert total == mass_total**n
        # dyadic-exact masses sum to exactly 1
        total = sum(
            (t.exact_prob(skew3) for t in enumerate_types(skew3.alphabet, 4)),
            Fraction(0),
        )
        assert total == 1

    def test_class_prob_matches_divergence_entropy_form(self, bern02):
        # p^n(T(Q)) = |T(Q)| e^(-n (D(Q||p) + H(Q)))
        for t in enumerate_types(bern02.alphabet, 5):
            q = t.empirical()
            expo = -t.n * (kl_divergence(q, bern02) + shannon_entropy(q))
            assert t.prob(bern02) == pytest.approx(
                t.multiplicity() * math.exp(expo), rel=1e-12
            )

    def test_compositions_match_the_recursion(self):
        def recursive(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in recursive(total - first, parts - 1):
                    yield (first,) + rest

        for total in range(7):
            for parts in range(1, 6):
                assert list(compositions(total, parts)) == list(recursive(total, parts))

    def test_compositions_of_many_parts(self):
        # one bar per part, no recursion: 2,000 parts is past the recursion limit
        got = list(compositions(1, 2000))
        assert len(got) == 2000
        assert got[0] == (0,) * 1999 + (1,) and got[-1] == (1,) + (0,) * 1999

    def test_type_lists_are_capped(self, monkeypatch):
        # 45,760 types x 64 counts: 2.9M cells, refused before any is built,
        # and in strings_by_type before the loop over the 64^3 strings
        with pytest.raises(SizeLimitError, match=r"2928640 type counts \(45760 types x 64 symbols\) exceed cap 1048576"):
            enumerate_types(range_alphabet(64), 3)

        def no_strings(*args, **kwargs):
            raise AssertionError("strings enumerated before the type cap")

        monkeypatch.setattr(itertools, "product", no_strings)
        with pytest.raises(SizeLimitError, match="45760 types"):
            strings_by_type(range_alphabet(64), 3)
        # 64 x 64 = 4,096 cells at n = 1 pass
        assert len(enumerate_types(range_alphabet(64), 1)) == 64

    def test_strings_by_type_partition(self):
        alph = Alphabet(("0", "1", "2"))
        groups = strings_by_type(alph, 3)
        seen = sorted(i for _, idxs in groups for i in idxs)
        assert seen == list(range(27))
        for tc, idxs in groups:
            assert len(idxs) == tc.multiplicity()


class TestProperties:
    @settings(max_examples=120, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_collision_identity_for_subdists(self, seed, size):
        # d2(P, total*uniform)^2 = e^(-H_2(P)) - total^2 / |A|
        rng = np.random.default_rng(seed)
        p = random_subdist(rng, size)
        lhs = l2_distance(p, p.scaled_uniform()) ** 2
        rhs = math.exp(-renyi_tilde(p, 1.0)) - p.total**2 / size
        assert abs(lhs - rhs) <= 1e-12

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_renyi_tilde_concave_in_s(self, seed, size):
        rng = np.random.default_rng(seed)
        p = random_subdist(rng, size, total=1.0)
        s_grid = np.linspace(0.05, 2.0, 40)
        vals = [renyi_tilde(p, float(s)) for s in s_grid]
        h = s_grid[1] - s_grid[0]
        second = np.diff(vals, 2) / h**2
        assert second.max() <= 1e-9

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.floats(0.05, 1.5))
    def test_derivative_matches_secant(self, seed, size, s):
        rng = np.random.default_rng(seed)
        p = random_subdist(rng, size)
        h = 1e-5
        fd = (renyi_tilde(p, s + h) - renyi_tilde(p, s - h)) / (2 * h)
        assert renyi_tilde_derivative(p, s) == pytest.approx(fd, abs=1e-6)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_pinsker(self, seed, size):
        rng = np.random.default_rng(seed)
        q = random_subdist(rng, size, total=1.0)
        p = SubDist(q.alphabet, random_subdist(rng, size, total=1.0).mass)
        assert kl_divergence(q, p) >= 0.5 * l1_distance(q, p) ** 2 - 1e-12

    @settings(max_examples=80, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.floats(0.1, 3.0))
    def test_truncation_tail_and_collision_bounds(self, seed, size, r):
        # tail <= e^(-H~_(1+s) + s r); kept collision mass <= e^(-H~_(1+s) - (1-s) r)
        rng = np.random.default_rng(seed)
        p = random_subdist(rng, size)
        kept, tail = smooth_truncate(p, r)
        assert l1_distance(p, kept) == pytest.approx(tail, abs=1e-15)
        for s in np.linspace(0.0, 1.0, 11):
            ht = renyi_tilde(p, float(s))
            assert tail <= math.exp(-ht + s * r) + 1e-12
            kept_mass = float(np.sum(kept.mass**2))
            assert kept_mass <= math.exp(-ht - (1.0 - s) * r) + 1e-12
