import math

import numpy as np
import pytest

from secexp.dists import (
    Alphabet,
    JointDist,
    SubDist,
    conditional_shannon_entropy,
    kl_divergence,
    range_alphabet,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
)
from secexp.exponents import (
    _projected_divergence_search,
    additive_pair_joint,
    cond_renyi_tilde,
    conditional_exponent_no_smoothing,
    conditional_exponent_phi,
    conditional_exponent_pinsker,
    conditional_hash_d1_bound_at,
    cramer_exponent,
    cramer_exponent_restricted,
    critical_rate,
    divergence_exponent,
    hash_d1_bound_at,
    holenstein_renner_exponents,
    maximize_on_interval,
    maximize_over_rates,
    phi_cond,
    universal_exponent,
    universal_hash_d1_bound,
)

from conftest import assert_matches_scalar_optimizer, assert_order_parity, random_dist


class TestHashBound:
    def test_uniform_matched_sizes(self):
        # uniform source, M = |A|: M^(s/(1+s)) cancels e^(-s log M/(1+s))
        # exactly, so the curve is the constant 3 (the bound is trivial there)
        m = 4
        u = SubDist.uniform(range_alphabet(m))
        curve = universal_hash_d1_bound(u, m)
        values = hash_d1_bound_at(u, m, np.linspace(0.0, 1.0, 101))
        np.testing.assert_allclose(values, np.full(101, 3.0), atol=1e-12)
        assert curve.min_value == pytest.approx(3.0, abs=1e-9)

    def test_smaller_output_gives_decreasing_curve(self):
        # hashing a uniform 4-symbol source into M = 2 cells: the bound curve
        # 3 e^(-s log 2 / (1+s)) strictly decreases to 3/sqrt(2) at s = 1
        u = SubDist.uniform(range_alphabet(4))
        curve = universal_hash_d1_bound(u, 2)
        values = hash_d1_bound_at(u, 2, np.linspace(0.0, 1.0, 101))
        assert values[0] == pytest.approx(3.0)
        assert np.all(np.diff(values) < 0.0)
        assert curve.min_value == pytest.approx(3.0 / math.sqrt(2), abs=1e-9)

    def test_s1_specialization(self, skew3):
        val = hash_d1_bound_at(skew3, 2, 1.0)
        expect = 3.0 * math.sqrt(2) * math.exp(-renyi_tilde(skew3, 1.0) / 2.0)
        assert val == pytest.approx(expect, abs=1e-15)
        assert hash_d1_bound_at(skew3, 2, 1.0) == pytest.approx(expect)

    def test_reference_hand_value(self, skew3):
        assert hash_d1_bound_at(skew3, 2, 1.0) == pytest.approx(2.598, abs=1e-3)


class TestUniversalExponent:
    def test_zero_at_entropy(self, bern02):
        res = universal_exponent(bern02, shannon_entropy(bern02))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.argmax == pytest.approx(0.0, abs=1e-3)

    def test_uniform_at_log_size(self):
        u = SubDist.uniform(range_alphabet(4))
        assert universal_exponent(u, math.log(4)).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_divergence_form_above_critical(self, bern02):
        rc = critical_rate(bern02)
        h = shannon_entropy(bern02)
        for r in np.linspace(rc, h, 9):
            a = universal_exponent(bern02, float(r)).value
            b = divergence_exponent(bern02, float(r)).value
            assert a == pytest.approx(b, abs=1e-6)

    def test_matches_divergence_form_ternary(self, ternary):
        rc = critical_rate(ternary)
        h = shannon_entropy(ternary)
        for r in np.linspace(rc, h, 7):
            a = universal_exponent(ternary, float(r)).value
            b = divergence_exponent(ternary, float(r)).value
            assert a == pytest.approx(b, abs=1e-6)


class TestWitnessReproduction:
    def test_scalar_witness_reproduces_value(self, bern02, ternary):
        for p in (bern02, ternary):
            for r in (0.15, 0.3, 0.45):
                res = universal_exponent(p, r)
                replay = (renyi_tilde(p, res.argmax) - res.argmax * r) / (
                    1.0 + res.argmax
                )
                assert replay == pytest.approx(res.value, abs=1e-9)
                res_c = cramer_exponent_restricted(p, r)
                replay_c = renyi_tilde(p, res_c.argmax) - res_c.argmax * r
                assert replay_c == pytest.approx(res_c.value, abs=1e-9)


class TestDivergenceExponent:
    def test_feasible_at_p(self, bern02):
        res = divergence_exponent(bern02, shannon_entropy(bern02) + 0.01)
        assert res.value == 0.0

    def test_rate_zero_forces_point_mass(self, skew3):
        res = divergence_exponent(skew3, 0.0)
        assert res.value == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_witness_reproduces_value(self, bern02, ternary):
        for p in (bern02, ternary):
            for r in (0.1, 0.3, 0.45):
                res = divergence_exponent(p, r)
                assert kl_divergence(res.witness, p) == pytest.approx(
                    res.value, abs=1e-9
                )
                assert shannon_entropy(res.witness) <= r + 1e-6

    def test_binary_grid_agrees_with_tilted_path(self, bern02):
        # independent scan over Bernoulli(q) as the oracle; the result must
        # beat every feasible grid point and sit within grid resolution of
        # the grid optimum
        for r in (0.2, 0.35, 0.45):
            res = divergence_exponent(bern02, r)
            qs = np.linspace(0.0, 1.0, 20001)
            best = math.inf
            for q in qs:
                cand = SubDist(bern02.alphabet, [q, 1 - q])
                if shannon_entropy(cand) <= r:
                    best = min(best, kl_divergence(cand, bern02))
            assert res.value <= best + 1e-12
            assert res.value == pytest.approx(best, abs=5e-5)

    def test_uniform_source_fallback(self):
        # tilting stays uniform, so the minimizer comes from the top-atom
        # branch; for a uniform reference D(Q||u) = log 2 - H(Q), so the
        # constrained minimum is exactly log 2 - R
        u = SubDist.uniform(range_alphabet(2))
        res = divergence_exponent(u, 0.3)
        assert res.method == "top-atoms"
        assert res.value == pytest.approx(math.log(2.0) - 0.3, abs=1e-9)

    def test_tied_top_atoms(self):
        # two tied largest atoms: the tilt flattens onto them at entropy
        # log 2 > R, so the exact minimum is -log p_max - R
        p = SubDist(range_alphabet(3), [0.4, 0.4, 0.2])
        res = divergence_exponent(p, 0.3)
        assert res.method == "top-atoms"
        assert res.argmax is None
        assert res.value == pytest.approx(-math.log(0.4) - 0.3, abs=1e-12)
        assert shannon_entropy(res.witness) == pytest.approx(0.3, abs=1e-12)

    def test_near_tie_solved_up_to_tilt_cap(self):
        # the tilt member with entropy R sits at s ~ 9.3e5, between the last
        # power of two and the cap; the witness must be that member and not
        # the tilt at the cap, whose entropy is already below R
        p = SubDist(range_alphabet(3), [0.4, 0.4 - 1e-6, 0.2 + 1e-6])
        res = divergence_exponent(p, 0.3)
        assert res.method == "tilted-path"
        assert shannon_entropy(res.witness) == pytest.approx(0.3, abs=1e-12)
        assert res.value == pytest.approx(-math.log(0.4) - 0.3, abs=1e-6)

    def test_never_above_constrained_optimizer(self):
        # the SLSQP search from random restarts is an independent oracle;
        # the exact path must match or beat every feasible point it finds
        rng = np.random.default_rng(5)
        for size in (3, 4, 5, 3, 4):
            p = random_dist(rng, size)
            r = float(rng.uniform(0.0, shannon_entropy(p)))
            oracle = _projected_divergence_search(p, r)
            assert oracle is not None
            assert divergence_exponent(p, r).value <= oracle[0] + 1e-12


class TestCriticalRate:
    def test_reference_value(self, bern02):
        assert critical_rate(bern02) == pytest.approx(0.223718, abs=1e-5)

    def test_uniform(self):
        u = SubDist.uniform(range_alphabet(5))
        assert critical_rate(u) == pytest.approx(math.log(5))

    def test_bernoulli_half(self):
        assert critical_rate(SubDist.bernoulli(0.5)) == pytest.approx(math.log(2))


class TestCramer:
    def test_zero_at_entropy(self, bern02):
        res = cramer_exponent(bern02, shannon_entropy(bern02))
        assert res.value == 0.0

    def test_restricted_matches_unrestricted_in_window(self, bern02):
        h2p = renyi_tilde_derivative(bern02, 1.0)
        h = shannon_entropy(bern02)
        for r in np.linspace(h2p, h - 1e-6, 7):
            full = cramer_exponent(bern02, float(r))
            restr = cramer_exponent_restricted(bern02, float(r))
            assert full.value == pytest.approx(restr.value, abs=1e-9)

    def test_below_window_unrestricted_larger(self, bern02):
        r = 0.1  # below H'_2 = 0.30469
        full = cramer_exponent(bern02, r)
        restr = cramer_exponent_restricted(bern02, r)
        assert full.value > restr.value + 1e-6

    def test_uniform_flags_divergence(self):
        u = SubDist.uniform(range_alphabet(3))
        res = cramer_exponent(u, 0.5)
        assert res.diverges
        assert res.value == math.inf

    def test_above_entropy_returns_zero(self, bern02):
        assert cramer_exponent(bern02, 0.6).value == 0.0

    @pytest.mark.parametrize("r", [8.09, 7.92, 7.91])
    def test_search_past_the_orders_whose_summands_underflow(self, flat4096, r):
        # -log max P = 7.909 and H = 8.275: the grid runs to s = 100, where
        # every summand of sum P^(1+s) underflows; at R = 7.92 the maximizer
        # lies at s = 82, below the orders whose summands are subnormal
        res = cramer_exponent(flat4096, r)
        peak = float(flat4096.mass.max())
        logs = np.log(flat4096.mass / peak)
        objective = lambda s: -(1.0 + s) * math.log(peak) - math.log(math.fsum(np.exp((1.0 + s) * logs).tolist())) - s * r
        assert res.value == pytest.approx(objective(res.argmax), rel=1e-12)
        assert res.value >= max(map(objective, np.linspace(0.0, 100.0, 201).tolist())) - 1e-12


class TestHolensteinRenner:
    def test_zero_gap(self, bern02):
        hr = holenstein_renner_exponents(bern02, shannon_entropy(bern02))
        assert hr.lower == pytest.approx(0.0, abs=1e-12)
        assert hr.upper == pytest.approx(0.0, abs=1e-12)

    def test_window_endpoint_reference_value(self, bern02):
        h = shannon_entropy(bern02)
        assert h - math.log(3.0) / 24.0 == pytest.approx(0.454627, abs=1e-6)

    def test_binary_window(self, bern02):
        hr = holenstein_renner_exponents(bern02, 0.46)
        assert hr.lower_applicable and hr.upper_applicable
        assert hr.lower > 0.0 and hr.upper > 0.0
        cram = cramer_exponent(bern02, 0.46).value
        assert hr.lower <= cram <= hr.upper

    def test_outside_converse_window(self, bern02):
        hr = holenstein_renner_exponents(bern02, 0.40)  # gap > ln3/24
        assert not hr.upper_applicable
        assert hr.upper is None
        assert hr.lower_applicable

    def test_ternary_uses_other_branch(self, ternary):
        h = shannon_entropy(ternary)
        r = h - math.log(2.0) / 13.0
        hr = holenstein_renner_exponents(ternary, r)
        assert hr.upper_applicable
        expect = 12 * math.log(2) * hr.gap**2 / math.log(2.0) ** 2
        assert hr.upper == pytest.approx(expect)


def masked_pair(p: SubDist) -> JointDist:
    return additive_pair_joint(p)


class TestPhiCond:
    def test_zero_at_zero(self):
        j = JointDist(range_alphabet(2), range_alphabet(2), [[0.4, 0.1], [0.2, 0.3]])
        assert phi_cond(j, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_independent_reduces_to_marginal(self, skew3):
        pe = SubDist(Alphabet(("u", "v")), [0.3, 0.7])
        j = JointDist.independent(skew3, pe)
        for t in (0.1, 0.3, 0.49):
            alpha = 1.0 / (1.0 - t)
            expect = (1.0 - t) * math.log(float(np.sum(skew3.mass**alpha)))
            assert phi_cond(j, t) == pytest.approx(expect, abs=1e-12)

    def test_full_leakage_is_zero(self):
        alph = range_alphabet(2)
        j = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
        for t in (0.0, 0.2, 0.45):
            assert phi_cond(j, t) == pytest.approx(0.0, abs=1e-12)

    def test_slope_at_zero_is_conditional_entropy(self):
        rng = np.random.default_rng(3)
        mass = rng.random((3, 3)) + 0.1
        mass /= mass.sum()
        j = JointDist(range_alphabet(3), Alphabet(("x", "y", "z")), mass)
        eps = 1e-6
        slope = phi_cond(j, eps) / eps
        assert slope == pytest.approx(-conditional_shannon_entropy(j), abs=1e-4)


class TestCondRenyi:
    def test_independent(self, skew3):
        pe = SubDist(Alphabet(("u", "v")), [0.3, 0.7])
        j = JointDist.independent(skew3, pe)
        for s in (0.2, 0.7, 1.0):
            assert cond_renyi_tilde(j, s) == pytest.approx(
                renyi_tilde(skew3, s), abs=1e-12
            )

    def test_full_leakage_zero(self):
        alph = range_alphabet(2)
        j = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
        for s in (0.2, 1.0):
            assert cond_renyi_tilde(j, s) == pytest.approx(0.0, abs=1e-12)

    def test_additive_pair_equals_marginal(self, bern02):
        j = masked_pair(bern02)
        for s in (0.3, 1.0):
            assert cond_renyi_tilde(j, s) == pytest.approx(
                renyi_tilde(bern02, s), abs=1e-12
            )

    def test_limit_is_conditional_entropy(self):
        rng = np.random.default_rng(17)
        mass = rng.random((3, 2)) + 0.1
        mass /= mass.sum()
        j = JointDist(range_alphabet(3), range_alphabet(2), mass)
        assert cond_renyi_tilde(j, 1e-7) / 1e-7 == pytest.approx(
            conditional_shannon_entropy(j), abs=1e-5
        )


class TestConditionalExponents:
    def test_zero_at_conditional_entropy(self):
        rng = np.random.default_rng(23)
        mass = rng.random((2, 2)) + 0.2
        mass /= mass.sum()
        j = JointDist(range_alphabet(2), range_alphabet(2), mass)
        h = conditional_shannon_entropy(j)
        assert conditional_exponent_phi(j, h).value == pytest.approx(0.0, abs=1e-9)
        assert conditional_exponent_pinsker(j, h).value == pytest.approx(
            0.0, abs=1e-9
        )

    def test_additive_pair_closed_forms(self, bern02):
        # masked pair: phi form = max (H~ - sR)/(1+s), Pinsker = max (H~ - sR)/2
        j = masked_pair(bern02)
        r = 0.3
        phi_val = conditional_exponent_phi(j, r).value
        pin_val = conditional_exponent_pinsker(j, r).value
        expect_phi = universal_exponent(bern02, r).value
        expect_pin = cramer_exponent_restricted(bern02, r).value / 2.0
        assert phi_val == pytest.approx(expect_phi, abs=1e-9)
        assert pin_val == pytest.approx(expect_pin, abs=1e-9)
        assert phi_val >= pin_val

    def test_ordering_random_joints(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            mass = rng.random((3, 3)) + 0.02
            mass /= mass.sum()
            j = JointDist(range_alphabet(3), Alphabet(("x", "y", "z")), mass)
            h = conditional_shannon_entropy(j)
            for r in np.linspace(0.0, h * 0.98, 6):
                pin = conditional_exponent_pinsker(j, float(r)).value
                phi = conditional_exponent_phi(j, float(r)).value
                assert pin <= phi + 1e-9

    def test_no_smoothing_below_pinsker(self, bern02):
        j = masked_pair(bern02)
        for r in np.linspace(0.0, 0.5, 6):
            dashed = conditional_exponent_no_smoothing(j, float(r))
            pin = conditional_exponent_pinsker(j, float(r)).value
            assert dashed <= pin + 1e-12


class TestConditionalHashBoundSizes:
    def test_product_form_up_to_2_1023(self, bern02):
        j = masked_pair(bern02)
        for m in (1, 2, 7, 2**20):
            assert conditional_hash_d1_bound_at(j, m, 0.25) == 3.0 * m**0.25 * math.exp(phi_cond(j, 0.25))

    def test_a_size_past_the_floats_goes_through_log_m(self, bern02):
        # 10^400 does not convert to a float: M^t is taken as e^(t log M)
        j = masked_pair(bern02)
        value = conditional_hash_d1_bound_at(j, 10**400, 0.25)
        assert math.isfinite(value)
        assert value == pytest.approx(3.0 * math.exp(100 * math.log(10) + phi_cond(j, 0.25)), rel=1e-12)


class TestRateDomain:
    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_nonfinite_rate(self, bern02, r):
        for form in (
            universal_exponent,
            cramer_exponent,
            cramer_exponent_restricted,
            divergence_exponent,
        ):
            with pytest.raises(ValueError, match="rate"):
                form(bern02, r)
        j = masked_pair(bern02)
        for form in (conditional_exponent_phi, conditional_exponent_pinsker):
            with pytest.raises(ValueError, match="rate"):
                form(j, r)

    def test_rate_zero_is_allowed(self, bern02):
        assert universal_exponent(bern02, 0.0).value > 0.0
        assert conditional_exponent_phi(masked_pair(bern02), 0.0).value > 0.0


class TestOrderArrays:
    """An array of orders gives the scalar call's value for each order, across
    several blocks of BLOCK_CELLS cells."""

    @pytest.fixture(scope="class")
    def source(self):
        return random_dist(np.random.default_rng(12), 1 << 12)

    @pytest.fixture(scope="class")
    def joint(self):
        mass = np.random.default_rng(13).random((256, 64))
        return JointDist(range_alphabet(256), range_alphabet(64), mass / mass.sum())

    def test_renyi_tilde(self, source):
        orders = np.r_[np.linspace(-0.9, 3.0, 300), 0.0, 0.5, 1.0, -0.5]
        assert_order_parity(lambda s: renyi_tilde(source, s), orders, 1 << 12)

    def test_hash_d1_bound_at(self, source):
        orders = np.r_[np.linspace(0.0, 1.0, 300), 0.5]
        assert_order_parity(lambda s: hash_d1_bound_at(source, 16, s), orders, 1 << 12)

    def test_phi_cond(self, joint):
        orders = np.r_[np.linspace(-1.0, 0.9, 100), 0.0, 0.5]
        assert_order_parity(lambda t: phi_cond(joint, t), orders, 256 * 64)

    def test_cond_renyi_tilde(self, joint):
        orders = np.r_[np.linspace(-0.5, 2.0, 100), 0.0, 1.0]
        assert_order_parity(lambda s: cond_renyi_tilde(joint, s), orders, 256 * 64)

    def test_keeps_the_shape_of_the_orders(self, skew3):
        orders = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        values = renyi_tilde(skew3, orders)
        assert values.shape == (2, 3)
        assert values[1, 2] == renyi_tilde(skew3, 1.0)

    def test_one_invalid_order_raises(self, skew3):
        j = masked_pair(skew3)
        with pytest.raises(ValueError):
            renyi_tilde(skew3, np.array([0.5, -1.0, 2.0]))
        with pytest.raises(ValueError):
            cond_renyi_tilde(j, np.array([0.5, -1.5]))
        with pytest.raises(ValueError):
            phi_cond(j, np.array([0.2, 1.0, 0.3]))
        with pytest.raises(ValueError):
            hash_d1_bound_at(skew3, 4, np.array([0.5, 1.01]))
        with pytest.raises(ValueError):
            hash_d1_bound_at(skew3, 4, np.array([-0.01, 0.5]))


class TestGridAsOneArrayCall:
    """Each exponent's optimization equals the optimizer that evaluates its
    grid one float at a time, at 20 rates each."""

    def test_grid_is_one_array_call(self):
        ndims = []

        def fn(x):
            ndims.append(np.ndim(x))
            return -((x - 0.3) ** 2)

        maximize_on_interval(fn, 0.0, 1.0)
        assert ndims[0] == 1 and ndims.count(1) == 1  # every later call is a float

    def test_returned_value_is_a_scalar_evaluation(self):
        # the grid only picks the point: an array evaluation that is off by
        # a constant does not reach the result
        fn = lambda x: -((x - 0.3) ** 2) + (1.0 if np.ndim(x) else 0.0)
        x, v = maximize_on_interval(fn, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-3)
        assert v == fn(x)

    def test_universal_exponent(self, bern02, optimizer_calls):
        for r in np.linspace(0.0, 0.5, 20):
            universal_exponent(bern02, float(r))
        assert_matches_scalar_optimizer(optimizer_calls, 20)

    def test_cramer_exponent(self, ternary, optimizer_calls):
        floor, h = -math.log(0.5), shannon_entropy(ternary)
        for r in np.linspace(floor + 0.01, h - 0.01, 20):
            cramer_exponent(ternary, float(r))
        assert_matches_scalar_optimizer(optimizer_calls, 20)

    def test_cramer_exponent_restricted(self, bern02, optimizer_calls):
        for r in np.linspace(0.0, 0.5, 20):
            cramer_exponent_restricted(bern02, float(r))
        assert_matches_scalar_optimizer(optimizer_calls, 20)

    def test_universal_hash_d1_bound(self, optimizer_calls):
        p = random_dist(np.random.default_rng(41), 8)
        for m in range(1, 21):
            universal_hash_d1_bound(p, m)
        assert_matches_scalar_optimizer(optimizer_calls, 20)

    @pytest.mark.parametrize("form", [conditional_exponent_phi, conditional_exponent_pinsker])
    def test_conditional_exponents(self, form, optimizer_calls):
        mass = np.random.default_rng(43).random((4, 3)) + 0.05
        j = JointDist(range_alphabet(4), range_alphabet(3), mass / mass.sum())
        for r in np.linspace(0.0, conditional_shannon_entropy(j) + 0.2, 20):
            form(j, float(r))
        assert_matches_scalar_optimizer(optimizer_calls, 20)


class TestRateArrays:
    """An exponent at an array of rates equals, bit for bit, the same
    exponent at each rate alone (one `maximize_on_interval` call each)."""

    @pytest.mark.parametrize("form", [universal_exponent, cramer_exponent_restricted])
    def test_equals_per_rate(self, form):
        rng = np.random.default_rng(61)
        at_one = 0
        for size in (2, 3, 7, 40):
            p = random_dist(rng, size)
            rates = np.concatenate([[0.0], rng.uniform(0.0, math.log(size), 24)])
            batch = form(p, rates)
            assert batch.value.shape == batch.argmax.shape == rates.shape
            for k, r in enumerate(rates.tolist()):
                one = form(p, r)
                assert (batch.value[k], batch.argmax[k]) == (one.value, one.argmax)
            at_one += int((batch.argmax == 1.0).sum())
        assert at_one >= 4  # rates whose maximizer is the interval end s = 1

    def test_bernoulli_sweep(self, bern02):
        # the figure 3 sweep: a two-atom source, where 0.2 ** 2.0 at s = 1
        # rounds differently over many orders than over one
        rates = np.linspace(0.0, shannon_entropy(bern02), 40)
        for form in (universal_exponent, cramer_exponent_restricted):
            values = form(bern02, rates).value
            assert values.tolist() == [form(bern02, r).value for r in rates.tolist()]

    def test_one_grid_call_and_one_call_per_polish_step(self, bern02):
        shapes = []

        def fn(s):
            shapes.append(np.shape(s))
            return renyi_tilde(bern02, s) - s * rates

        rates = np.linspace(0.0, 0.5, 30)
        maximize_over_rates(fn, 0.0, 1.0, rates)
        assert shapes[0] == (1025, 1)
        points = shapes[1:]
        assert all(shape in ((), (30,)) for shape in points)
        assert points.count((30,)) < 60  # the polish, in lockstep over all rates
        assert points.count(()) <= 30  # each distinct best grid point, as a float

    def test_rows_match_one_objective_runs(self):
        # a maximum inside an end interval has a one-interval bracket, which
        # closes a step or two before the others: each row still ends where
        # its own run does
        h = 1.0 / 1024
        rates = np.array([0.3 * h, 0.123456, 0.5, 1.0 - 0.3 * h, 1.0, 2.0])
        fn = lambda x, r: -(x - r) * (x - r)
        xs, vs = maximize_over_rates(lambda x: fn(x, rates), 0.0, 1.0, rates)
        for k, r in enumerate(rates.tolist()):
            assert (xs[k], vs[k]) == maximize_on_interval(lambda x: fn(x, r), 0.0, 1.0)

    def test_invalid_rates(self, bern02):
        with pytest.raises(ValueError):
            universal_exponent(bern02, np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            cramer_exponent_restricted(bern02, np.array([0.1, np.inf]))
        with pytest.raises(ValueError):
            universal_exponent(bern02, np.zeros((2, 2)))
