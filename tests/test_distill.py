import math

import numpy as np
import pytest

from secexp.dists import (
    Alphabet,
    JointDist,
    SubDist,
    conditional_shannon_entropy,
    product_alphabet,
)
from secexp.distill import (
    CorrelationTriple,
    _negated_joint,
    channels_from_joint,
    distillation_d1_bound,
    distillation_error_bound,
    run_distillation,
)
from secexp.exponents import cond_renyi_tilde, phi_cond
from secexp.gf import Module
from secexp.wiretap import phi_channel

from conftest import assert_bit_equal, assert_matches_scalar_optimizer, kron_loop


def bit_alphabet():
    return Alphabet(("0", "1"))


def triple_perfect():
    """B = A exactly; E independent of A."""
    alph = bit_alphabet()
    pab = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
    pae = JointDist.independent(
        SubDist(alph, [0.5, 0.5]), SubDist(alph, [0.6, 0.4])
    )
    return CorrelationTriple(pab, pae, Module(2, 1))


def triple_noisy():
    """B = A through a 10% flip; E = A through a 25% flip."""
    alph = bit_alphabet()
    pab = JointDist(alph, alph, [[0.45, 0.05], [0.05, 0.45]])
    pae = JointDist(alph, alph, [[0.375, 0.125], [0.125, 0.375]])
    return CorrelationTriple(pab, pae, Module(2, 1))


def triple_skewed():
    """Nonuniform A; asymmetric leakage."""
    alph = bit_alphabet()
    pab = JointDist(alph, alph, [[0.27, 0.03], [0.07, 0.63]])
    pae = JointDist(alph, alph, [[0.24, 0.06], [0.28, 0.42]])
    return CorrelationTriple(pab, pae, Module(2, 1))


class TestCorrelationTriple:
    def test_marginal_consistency_enforced(self):
        alph = bit_alphabet()
        pab = JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]])
        pae = JointDist(alph, alph, [[0.3, 0.1], [0.2, 0.4]])
        with pytest.raises(ValueError):
            CorrelationTriple(pab, pae, Module(2, 1))

    def test_rate_is_entropy_difference(self):
        tri = triple_noisy()
        expect = conditional_shannon_entropy(tri.pae) - conditional_shannon_entropy(
            tri.pab
        )
        assert tri.rate() == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_iid_extension_bit_identical_to_the_kron_loop(self, q, n):
        # the old path: each joint's own Kronecker loop, relabelled by F_q^n
        rng = np.random.default_rng(10 * q + n)
        mod = Module(q, 1)
        pa = rng.random(q)
        pa /= pa.sum()
        sides = []
        for width in (3, 2):
            cond = rng.random((q, width))
            sides.append(cond / cond.sum(axis=1, keepdims=True) * pa[:, None])
        a = Alphabet(mod.labels())
        tri = CorrelationTriple(
            JointDist(a, Alphabet(("b0", "b1", "b2")), sides[0]),
            JointDist(a, Alphabet(("e0", "e1")), sides[1]),
            mod,
        )
        ext = tri.iid_extend(n)
        assert ext.module == Module(q, n)
        for got, joint in ((ext.pab, tri.pab), (ext.pae, tri.pae)):
            assert_bit_equal(got.mass, kron_loop(joint.mass, n))
            assert got.alphabet_a.symbols == Module(q, n).labels()
            assert got.alphabet_e == product_alphabet(joint.alphabet_e, n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            tri.iid_extend(0)

    def test_iid_extension_additivity(self):
        tri = triple_noisy()
        tri2 = tri.iid_extend(2)
        assert tri2.module.size == 4
        for s in (0.3, 1.0):
            assert cond_renyi_tilde(tri2.pae, s) == pytest.approx(
                2.0 * cond_renyi_tilde(tri.pae, s), abs=1e-12
            )
        for t in (0.2, -0.4):
            assert phi_cond(tri2.pab, t) == pytest.approx(
                2.0 * phi_cond(tri.pab, t), abs=1e-12
            )


class TestReducedChannels:
    def test_shapes_and_tags(self):
        wb, we = channels_from_joint(triple_noisy())
        assert wb.structure_kind() == "general_additive"
        assert we.structure_kind() == "general_additive"
        assert wb.matrix.shape == (2, 4)
        assert wb.verify_structure() == 0.0

    def test_hand_built_matrix(self):
        # W^B_x(b, x') = P(A = x - x', B = b); outputs ordered (x', b)
        tri = triple_skewed()
        wb, _ = channels_from_joint(tri)
        p = tri.pab.mass
        # x = 0: (x'=0, b) -> P(0, b); (x'=1, b) -> P(1, b)
        np.testing.assert_allclose(wb.matrix[0], [p[0, 0], p[0, 1], p[1, 0], p[1, 1]])
        # x = 1: x - x' flips
        np.testing.assert_allclose(wb.matrix[1], [p[1, 0], p[1, 1], p[0, 0], p[0, 1]])

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_negation_is_the_neg_idx_permutation(self, q, n):
        mod = Module(q, n)
        mass = np.random.default_rng(10 * q + n).random((mod.size, 2))
        j = JointDist(Alphabet(mod.labels()), Alphabet(("u", "v")), mass / mass.sum())
        perm = [mod.neg_idx(i) for i in range(mod.size)]
        assert np.array_equal(_negated_joint(j, mod).mass, j.mass[perm])

    def test_perfect_correlation_noiseless_up_to_masking(self):
        wb, _ = channels_from_joint(triple_perfect())
        # given x, output (x', b) has b = a = x - x', so only 2 outputs per row
        for x in range(2):
            assert np.count_nonzero(wb.matrix[x]) == 2

    def test_independent_eve_carries_only_masking(self):
        tri = triple_perfect()
        _, we = channels_from_joint(tri)
        for s in (0.3, 1.0):
            # conditional entropy of the pair equals the unconditional one
            from secexp.dists import renyi_tilde

            assert cond_renyi_tilde(tri.pae, s) == pytest.approx(
                renyi_tilde(tri.pae.marginal_a(), s), abs=1e-12
            )

    def test_phi_identity_on_reduced_channels(self):
        # e^(phi(-s | W^B, uniform)) = |A|^(-s) e^(phi(-s | P(A,B)))
        tri = triple_noisy()
        wb, we = channels_from_joint(tri)
        p_mix = SubDist.uniform(wb.input_alphabet)
        size = 2
        for s in (0.25, 0.75, 1.0):
            lhs = phi_channel(wb, p_mix, -s)
            rhs = -s * math.log(size) + phi_cond(tri.pab, -s)
            assert lhs == pytest.approx(rhs, abs=1e-12)
        for t in (0.2, 0.45):
            lhs = phi_channel(we, p_mix, t)
            rhs = t * math.log(size) + phi_cond(tri.pae, t)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("tri_fn", [triple_perfect, triple_noisy, triple_skewed])
    def test_reduced_eve_channel_identity_pairings(self, tri_fn):
        # the reduced Eve channel is general-additive; both exact identity
        # pairings hold on it (psi with the conditional closed form, phi with
        # the escort form)
        from secexp.wiretap import additive_identities

        tri = tri_fn()
        _, we = channels_from_joint(tri)
        assert we.verify_structure() == 0.0
        for t in (0.0, 0.25, 0.45):
            rep = additive_identities(we, t)
            assert rep.psi_form == pytest.approx(rep.closed_form, abs=1e-12)
            assert rep.phi_form == pytest.approx(rep.escort_form, abs=1e-12)
            assert rep.phi_form <= rep.psi_form + 1e-12


class TestRunDistillation:
    def test_perfect_case_zero_error_and_leak(self):
        # B = A, E independent, M = |A|, L = 1: the injective codebook decodes
        # perfectly and leaks nothing; Eve's rows are identical for every
        # codebook, so even the ensemble average of d1 is 0
        from secexp.hashing import ExplicitFamily
        from secexp.wiretap import (
            code_from_codebook,
            error_prob,
            eve_distinguishability,
        )

        tri = triple_perfect()
        wb, we = channels_from_joint(tri)
        code = code_from_codebook((0, 1), [1, 2], 2, 1, wb)
        assert error_prob(code, wb) == pytest.approx(0.0, abs=1e-15)
        assert eve_distinguishability(code, we) == pytest.approx(0.0, abs=1e-15)
        fam = ExplicitFamily(Alphabet(("1", "2")), 2, [[1, 2]])
        rep = run_distillation(tri, 2, 1, fam=fam)
        assert rep.d1 == pytest.approx(0.0, abs=1e-12)
        assert rep.rate == pytest.approx(conditional_shannon_entropy(tri.pae))

    @pytest.mark.parametrize(
        "tri_fn", [triple_perfect, triple_noisy, triple_skewed]
    )
    def test_bounds_hold_n1(self, tri_fn):
        tri = tri_fn()
        rep = run_distillation(tri, 2, 2)
        assert rep.eps <= rep.bound_eps_ensemble + 1e-12
        assert rep.d1 <= rep.bound_d1_ensemble + 1e-12
        assert rep.bound_eps_code == pytest.approx(2 * rep.bound_eps_ensemble)
        assert rep.bound_d1_code == pytest.approx(2 * rep.bound_d1_ensemble)
        assert rep.selected_eps <= 2 * rep.eps + 1e-12
        assert rep.selected_d1 <= 2 * rep.d1 + 1e-12

    @pytest.mark.parametrize("tri_fn", [triple_noisy, triple_skewed])
    def test_bounds_hold_n2(self, tri_fn):
        tri = tri_fn().iid_extend(2)
        rep = run_distillation(tri, 2, 2)
        assert rep.eps <= rep.bound_eps_ensemble + 1e-12
        assert rep.d1 <= rep.bound_d1_ensemble + 1e-12

    def test_rate_report(self):
        tri = triple_noisy()
        rep = run_distillation(tri, 2, 2)
        assert rep.rate == pytest.approx(
            rep.h_a_given_e - rep.h_a_given_b, abs=1e-12
        )
        # symmetric 10% vs 25% flips with uniform A: rate = h(.25) - h(.1)
        h = lambda q: -q * math.log(q) - (1 - q) * math.log(1 - q)
        assert rep.rate == pytest.approx(h(0.25) - h(0.1), abs=1e-12)

    def test_bound_display_tensorizes(self):
        # doubling n while squaring L squares the optimized display, since
        # every ingredient of the objective is additive under extension
        tri = triple_noisy()
        b1 = distillation_d1_bound(tri.pae, 4) / 3.0
        tri2 = tri.iid_extend(2)
        b2 = distillation_d1_bound(tri2.pae, 16) / 3.0
        assert b2 == pytest.approx(b1**2, rel=1e-9)

    def test_mc_mode(self):
        tri = triple_noisy()
        exact = run_distillation(tri, 2, 2)
        est = run_distillation(tri, 2, 2, mode="mc", n_samples=600, seed=5)
        assert est.eps_stderr is not None
        assert abs(est.eps - exact.eps) <= 4 * max(est.eps_stderr, 1e-9)
        assert abs(est.d1 - exact.d1) <= 4 * max(est.d1_stderr, 1e-9)

    def test_error_bound_via_conditional_entropy(self):
        tri = triple_noisy()
        val = distillation_error_bound(tri.pab, 2, 2)
        # direct evaluation of the display at its optimizing grid
        size = 2
        best = min(
            (4**s) * size ** (-s) * math.exp(phi_cond(tri.pab, -s))
            for s in np.linspace(0, 1, 201)
        )
        assert val == pytest.approx(best, abs=1e-6)


class TestGridAsOneArrayCall:
    def test_bounds_match_scalar_grid(self, optimizer_calls):
        # both distillation bounds equal the optimizer that evaluates its
        # grid one float at a time, at 20 sizes each
        for tri_fn in (triple_noisy, triple_skewed):
            tri = tri_fn()
            for size in range(1, 11):
                distillation_error_bound(tri.pab, size, 2)
                distillation_d1_bound(tri.pae, size)
        assert_matches_scalar_optimizer(optimizer_calls, 40)
