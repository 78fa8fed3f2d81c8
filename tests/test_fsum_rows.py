import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secexp import dists, privacy
from secexp.dists import BLOCK_CELLS, JointDist, fsum_groups, fsum_rows, range_alphabet
from secexp.exponents import hash_d1_bound_at, universal_hash_d1_bound
from secexp.hashing import ToeplitzFamily
from secexp.privacy import expected_d1_conditional
from secexp.wiretap import Channel, WiretapCode, error_prob

from conftest import random_dist


def reference_rows(a) -> list:
    """math.fsum of each row's Python floats: the result, or the exception
    type math.fsum raises."""
    try:
        return [repr(math.fsum(row)) for row in np.asarray(a, dtype=float).tolist()]
    except (ValueError, OverflowError) as e:
        return type(e)


def kernel_rows(a) -> list:
    try:
        return [repr(v) for v in fsum_rows(a)]
    except (ValueError, OverflowError) as e:
        return type(e)


def old_log_fsum_by_order(s, terms, cells: int):
    """log_fsum_by_order as it summed each row: Python floats and math.fsum."""
    orders = np.asarray(s, dtype=float)
    step = max(1, BLOCK_CELLS // (8 * max(cells, 1)))
    sums = []
    for lo in range(0, orders.size, step):
        sums.extend(map(math.fsum, terms(orders.reshape(-1)[lo : lo + step]).tolist()))
    logs = list(map(math.log, sums))
    return logs[0] if orders.ndim == 0 else np.array(logs).reshape(orders.shape)


def old_error_prob(code, wb) -> float:
    out = code.encoders @ wb.matrix
    errs = []
    for i in range(code.m):
        good = code.decoder == (i + 1)
        errs.append(1.0 - math.fsum(out[i, good].tolist()))
    return math.fsum(errs) / code.m


def old_l1_rows(rows, ref) -> list:
    dev = np.abs(rows - ref).reshape(len(rows), -1)
    return [math.fsum(row) for row in dev.tolist()]


class TestFsumRows:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 6),
        n=st.integers(1, 3 * dists._KERNEL_MIN_ROW),
        low_exp=st.integers(-1080, 0),
        signs=st.booleans(),
        zero_row=st.booleans(),
        special=st.sampled_from([None, math.inf, -math.inf, math.nan, 1e308]),
    )
    def test_equals_fsum_of_python_floats(self, seed, rows, n, low_exp, signs, zero_row, special):
        # random mantissas at exponents from low_exp (subnormal below -1022)
        # to about 1, on both sides of the kernel's row-length crossover
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.random((rows, n)), rng.integers(low_exp, 2, (rows, n)))
        if signs:
            a *= rng.choice([-1.0, 1.0], a.shape)
        if rows and zero_row:
            a[rng.integers(rows)] = 0.0
        if rows and special is not None:
            a[rng.integers(rows), rng.integers(n)] = special
        assert kernel_rows(a) == reference_rows(a)

    def test_cancellation_and_half_way_cases(self):
        n = 2 * dists._KERNEL_MIN_ROW
        a = np.zeros((4, n))
        a[0, :3] = [1.0, 1e-300, -1.0]  # exact total far below the terms
        a[1, :3] = [1.0, 2.0**-53, 2.0**-106]  # just above a tie: rounds up
        a[2, :2] = [1.0, 2.0**-53]  # a tie: rounds to even
        a[3, :] = 5e-324  # subnormals only
        assert kernel_rows(a) == reference_rows(a)

    @pytest.mark.parametrize(
        "head", [[1.5e308, 1.5e308, -1e308], [1.5e308, -1e308, 1.5e308, -1e308]]
    )
    def test_overflow_is_math_fsums(self, head):
        # the second row's numpy sum is finite, its partial sums are not
        a = np.zeros((2, dists._KERNEL_MIN_ROW))
        a[1, : len(head)] = head
        assert kernel_rows(a) == reference_rows(a) == OverflowError

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [dists._KERNEL_MIN_ROW, 4096])
    def test_inf_minus_inf_in_one_row_is_math_fsums_error(self, n):
        # one bad row among rows the kernel would take: math.fsum's
        # ValueError, with no numpy warning on the way
        a = np.random.default_rng(n).random((3, n))
        a[1, n // 2 : n // 2 + 2] = math.inf, -math.inf
        with pytest.raises(ValueError, match=re.escape("-inf + inf in fsum")):
            fsum_rows(a)

    def test_rows_from_the_crossover_length_use_the_kernel(self, monkeypatch):
        # the kernel hands math.fsum a row's bucket parts, far fewer than
        # its entries; shorter rows go to math.fsum whole
        lengths = []
        fsum = math.fsum
        monkeypatch.setattr(dists.math, "fsum", lambda row: lengths.append(len(row)) or fsum(row))
        n = dists._KERNEL_MIN_ROW
        a = np.random.default_rng(1).random((3, n))
        fsum_rows(a[:, :-1])
        assert lengths == [n - 1] * 3
        lengths.clear()
        fsum_rows(a)
        assert len(lengths) == 3 and max(lengths) < n // 2


def _flat(rng, n, low_exp=-1080, high_exp=2):
    """n random mantissas at binary exponents low_exp .. high_exp - 1, signed."""
    return np.ldexp(rng.random(n), rng.integers(low_exp, high_exp, n)) * rng.choice([-1.0, 1.0], n)


def _with(x, *head):
    x[: len(head)] = head[: x.size]
    return x


_FLAT_CASES = {
    "mixed exponents": _flat,
    "ties": lambda rng, n: np.resize([1.0, 2.0**-53], n),  # halfway totals round to even
    "just above a tie": lambda rng, n: _with(np.resize([1.0, 2.0**-53], n), 2.0**-106),
    "subnormals": lambda rng, n: rng.integers(-(1 << 20), 1 << 20, n) * 5e-324,
    "cancellation": lambda rng, n: _with(_flat(rng, n, -1080, -1060), 1.0, -1.0),
    "nan": lambda rng, n: _with(_flat(rng, n), math.nan),
    "inf": lambda rng, n: _with(_flat(rng, n), math.inf),
    "inf - inf": lambda rng, n: _with(_flat(rng, n), math.inf, -math.inf),
    "near 2^1000": lambda rng, n: _flat(rng, n, 995, 1001),
    "overflow": lambda rng, n: _with(np.zeros(n), 1.5e308, 1.5e308, -1e308),
}


class TestFsum:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", list(_FLAT_CASES))
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 4096])
    def test_equals_fsum_of_python_floats(self, case, n):
        # on both sides of the kernel's crossover, exceptions included
        x = _FLAT_CASES[case](np.random.default_rng(n), n)
        try:
            expect = repr(math.fsum(x.tolist()))
        except (ValueError, OverflowError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                dists.fsum(x)
        else:
            assert repr(dists.fsum(x)) == expect
        if case == "overflow" and n >= 3:  # the partial sums overflow, the total would not
            with pytest.raises(OverflowError):
                dists.fsum(x)

    def test_takes_lists_and_arrays_as_one_row(self):
        a = np.random.default_rng(3).random((3, 700))
        expect = math.fsum(a.ravel().tolist())
        assert dists.fsum(a) == dists.fsum(a.ravel().tolist()) == expect


class TestFsumGroups:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.integers(1, 5),
        n=st.integers(0, 6 * dists._KERNEL_MIN_ROW),
        low_exp=st.integers(-1080, 0),
        signs=st.booleans(),
        special=st.sampled_from([None, math.inf, math.nan, 1e308]),
    )
    def test_equals_fsum_per_group(self, seed, groups, n, low_exp, signs, special):
        # on both sides of the kernel's crossover (groups of _KERNEL_MIN_ROW
        # entries on average), groups left empty included
        rng = np.random.default_rng(seed)
        values = np.ldexp(rng.random(n), rng.integers(low_exp, 2, n))
        if signs:
            values *= rng.choice([-1.0, 1.0], n)
        if n and special is not None:
            values[rng.integers(n)] = special
        keys = rng.integers(0, groups, n)
        expect = [repr(math.fsum(values[keys == g].tolist())) for g in range(groups)]
        assert [repr(v) for v in fsum_groups(values, keys, groups)] == expect

    def test_kernel_and_sorted_paths(self, monkeypatch):
        # a group of 2 * _KERNEL_MIN_ROW entries goes to the kernel, which
        # hands math.fsum far fewer parts than entries
        lengths = []
        fsum = math.fsum
        monkeypatch.setattr(dists.math, "fsum", lambda row: lengths.append(len(row)) or fsum(row))
        values = np.random.default_rng(2).random(2 * dists._KERNEL_MIN_ROW)
        keys = np.arange(values.size) % 2
        fsum_groups(values, keys, 2)
        assert len(lengths) == 2 and max(lengths) < dists._KERNEL_MIN_ROW // 2
        lengths.clear()
        fsum_groups(values, keys, 3)
        assert lengths == [dists._KERNEL_MIN_ROW, dists._KERNEL_MIN_ROW, 0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inf_minus_inf(self):
        # groups of 2 * _KERNEL_MIN_ROW entries on average: -inf + inf in one
        # group is math.fsum's ValueError, split between two groups it is not
        values = np.random.default_rng(5).random(4 * dists._KERNEL_MIN_ROW)
        keys = np.arange(values.size) % 2
        values[:3] = math.inf, 0.5, -math.inf
        with pytest.raises(ValueError, match=re.escape("-inf + inf in fsum")):
            fsum_groups(values, keys, 2)
        values[:3] = math.inf, -math.inf, 0.5
        assert fsum_groups(values, keys, 2) == [math.inf, -math.inf]


class TestKernelEntryBound:
    """From _KERNEL_MAX_ENTRIES entries on, every layout is summed by math.fsum
    whole.  The bound is patched down: an input that long is a 512 MB array."""

    def test_fsum_rows_and_groups_fall_back(self, monkeypatch):
        bound = 4 * dists._KERNEL_MIN_ROW
        monkeypatch.setattr(dists, "_KERNEL_MAX_ENTRIES", bound)
        lengths = []
        fsum = math.fsum
        monkeypatch.setattr(dists.math, "fsum", lambda row: lengths.append(len(row)) or fsum(row))
        x = np.random.default_rng(6).random(bound) * np.resize([1.0, -1.0, 1.0], bound)
        keys = np.arange(bound) % 2
        assert dists.fsum(x) == fsum(x.tolist())
        assert fsum_rows(x.reshape(2, -1)) == [fsum(row) for row in x.reshape(2, -1).tolist()]
        assert fsum_groups(x, keys, 2) == [fsum(x[keys == g].tolist()) for g in (0, 1)]
        assert lengths == [bound] + [bound // 2] * 4
        # one entry fewer: the kernel, which hands math.fsum a row's bucket parts
        lengths.clear()
        assert dists.fsum(x[1:]) == fsum(x[1:].tolist())
        assert len(lengths) == 1 and lengths[0] < dists._KERNEL_MIN_ROW


class TestOracles:
    """Every functional gives, bit for bit, what it gave when each row was
    summed by math.fsum of a Python list."""

    def test_universal_hash_d1_bound(self, monkeypatch):
        p = random_dist(np.random.default_rng(21), 1 << 14)
        grid = np.linspace(0.0, 1.0, 101)
        runs = lambda: (universal_hash_d1_bound(p, 64), hash_d1_bound_at(p, 64, grid).tobytes(),
                        hash_d1_bound_at(p, 64, 1.0))
        new = runs()
        monkeypatch.setattr(dists, "log_fsum_by_order", old_log_fsum_by_order)
        assert repr(new) == repr(runs())

    def test_expected_d1_conditional_toeplitz(self, monkeypatch):
        # rows of M |E| = 16 x 64 cells, past the crossover
        fam = ToeplitzFamily(2, 8, 4)
        assert fam.output_size * 64 >= dists._KERNEL_MIN_ROW
        mass = np.random.default_rng(22).random((fam.input_alphabet.size, 64))
        j = JointDist(fam.input_alphabet, range_alphabet(64), mass / mass.sum())
        runs = lambda: (
            expected_d1_conditional(j, fam),
            expected_d1_conditional(j, fam, mode="mc", n_samples=50, seed=3),
        )
        new = runs()
        monkeypatch.setattr(privacy, "_l1_rows", old_l1_rows)
        assert repr(runs()) == repr(new)

    def test_error_prob(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            nx, ny, m = rng.integers(2, 9), rng.integers(2, 40), rng.integers(1, 6)
            mat = rng.random((nx, ny))
            wb = Channel(range_alphabet(nx), range_alphabet(ny), mat / mat.sum(axis=1, keepdims=True))
            enc = rng.random((m, nx))
            code = WiretapCode(m, enc / enc.sum(axis=1, keepdims=True), rng.integers(0, m + 1, ny))
            assert repr(error_prob(code, wb)) == repr(old_error_prob(code, wb))
