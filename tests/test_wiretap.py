import itertools
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from secexp.dists import (
    Alphabet,
    JointDist,
    SizeLimitError,
    SubDist,
    iid_extend,
    product_alphabet,
    range_alphabet,
    renyi_tilde,
)
from secexp.exponents import maximize_on_interval, phi_cond
from secexp.figures import (
    example_channel,
    example_channel_reported_info,
)
from secexp.gf import Module

from conftest import (
    assert_bit_equal,
    assert_matches_scalar_optimizer,
    assert_order_parity,
    kron_loop,
    one_hot_metrics,
)
from secexp import dists
from secexp import wiretap as wiretap_module
from secexp.hashing import FullyRandomFamily, HashFamily, ToeplitzFamily, fit_toeplitz
from secexp.privacy import EnsembleEstimate
from secexp.wiretap import (
    Channel,
    LinearCode,
    WiretapCode,
    additive_identities,
    code_from_codebook,
    condition4_report,
    coset_code,
    coset_d1_bound,
    coset_d1_bound_closed,
    coset_ensemble_d1,
    e_phi,
    e_psi,
    error_prob,
    eve_distinguishability,
    holder_ordering,
    markov_select,
    mutual_information,
    phi_channel,
    psi_channel,
    psi_pinsker_exponent,
    random_coding_d1_bound,
    random_coding_error_bound,
    random_wiretap_code,
    uniform_codeword_joint,
    uniform_on_subset,
    wiretap_ensemble_exact,
    wiretap_ensemble_mc,
)


def bsc(p_flip: float) -> Channel:
    noise = SubDist(Alphabet(("0", "1")), [1.0 - p_flip, p_flip])
    return Channel.additive(noise, Module(2, 1))


def uniform_input(w: Channel) -> SubDist:
    return SubDist.uniform(w.input_alphabet)


class TestChannel:
    def test_rows_must_sum_to_one(self):
        alph = Alphabet(("0", "1"))
        with pytest.raises(ValueError):
            Channel(alph, alph, [[0.5, 0.4], [0.5, 0.5]])

    def test_additive_structure_reproduces_matrix(self):
        w = bsc(0.2)
        assert w.verify_structure() == 0.0
        np.testing.assert_allclose(w.matrix, [[0.8, 0.2], [0.2, 0.8]])

    def test_general_additive_structure(self):
        j = JointDist(range_alphabet(2), Alphabet(("u", "v")), [[0.4, 0.1], [0.2, 0.3]])
        w = Channel.general_additive(j, Module(2, 1))
        assert w.verify_structure() == 0.0
        # row for x = 1: outputs (z, z') with z - x = z + 1 mod 2
        np.testing.assert_allclose(w.matrix[1], [0.2, 0.3, 0.4, 0.1])

    def test_iid_extension_additive_matches_kron(self):
        w = bsc(0.1)
        kron = w.matrix
        for n in (2, 3):
            kron = np.kron(kron, w.matrix)
            ext = w.iid_extend(n)
            assert ext.structure_kind() == "additive"
            assert np.array_equal(ext.matrix, kron)

    def test_iid_extension_general_additive_preserves_phi(self):
        j = JointDist(range_alphabet(2), Alphabet(("u", "v")), [[0.4, 0.1], [0.2, 0.3]])
        w = Channel.general_additive(j, Module(2, 1))
        ext_tagged = w.iid_extend(2)
        ext_generic = Channel(
            *(lambda g: (g.input_alphabet, g.output_alphabet, g.matrix))(
                Channel(w.input_alphabet, w.output_alphabet, w.matrix).iid_extend(2)
            )
        )
        p2 = uniform_input(ext_tagged)
        p2g = uniform_input(ext_generic)
        for t in (0.2, -0.5):
            assert phi_channel(ext_tagged, p2, t) == pytest.approx(
                phi_channel(ext_generic, p2g, t), abs=1e-12
            )

    def test_extension_cap_holds_for_every_kind(self):
        # n >= 1 and (|X| |Y|)^n cells are checked before any branch: 4^11
        # and (2 * 2)^11 exceed the 2^20 cap, for tagged channels too
        side = JointDist(range_alphabet(2), Alphabet(("u",)), [[0.6], [0.4]])
        w = bsc(0.1)
        generic = Channel(w.input_alphabet, w.output_alphabet, w.matrix)
        for w in (w, Channel.general_additive(side, Module(2, 1)), generic):
            with pytest.raises(SizeLimitError, match="4194304 matrix cells"):
                w.iid_extend(11)
            assert w.iid_extend(10).matrix.size == 1 << 20
            with pytest.raises(ValueError, match="n must be >= 1"):
                w.iid_extend(0)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extension_bit_identical_to_the_kron_loops(self, q, n):
        # the loops each extension ran before one Kronecker power built them
        rng = np.random.default_rng(10 * q + n)
        mod = Module(q, 1)
        mat = rng.random((q, q + 1))
        generic = Channel(Alphabet(mod.labels()), range_alphabet(q + 1), mat / mat.sum(axis=1, keepdims=True))
        ext = generic.iid_extend(n)
        assert_bit_equal(ext.matrix, kron_loop(generic.matrix, n))
        assert ext.input_alphabet == product_alphabet(generic.input_alphabet, n)
        assert ext.output_alphabet == product_alphabet(generic.output_alphabet, n)
        assert ext.structure_kind() == "generic"
        noise = rng.random(q)
        joint = rng.random((q, 2))
        for w in (
            Channel.additive(SubDist(Alphabet(mod.labels()), noise / noise.sum()), mod),
            Channel.general_additive(JointDist(Alphabet(mod.labels()), Alphabet(("u", "v")), joint / joint.sum()), mod),
        ):
            mod_n = Module(q, n)
            old = Channel.general_additive(
                JointDist(
                    Alphabet(mod_n.labels()),
                    product_alphabet(w.noise.alphabet_e, n),
                    kron_loop(w.noise.mass, n),
                ),
                mod_n,
            )
            ext = w.iid_extend(n)
            assert_bit_equal(ext.matrix, old.matrix)
            assert_bit_equal(ext.noise.mass, old.noise.mass)
            assert ext.input_alphabet == old.input_alphabet
            assert ext.output_alphabet == old.output_alphabet
            assert ext.noise.alphabet_a == old.noise.alphabet_a
            assert ext.noise.alphabet_e == old.noise.alphabet_e
            assert ext.module == mod_n and ext.structure_kind() == w.structure_kind()
            assert ext.verify_structure() == 0.0

    def test_phi_additivity_under_extension(self):
        w = bsc(0.15)
        p1 = uniform_input(w)
        ext = w.iid_extend(3)
        p3 = uniform_input(ext)
        for t in (0.3, -0.4):
            assert phi_channel(ext, p3, t) == pytest.approx(
                3.0 * phi_channel(w, p1, t), abs=1e-12
            )


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_matrix(self, bad):
        alph = Alphabet(("0", "1"))
        with pytest.raises(ValueError, match="finite"):
            Channel(alph, alph, [[bad, 0.5], [0.5, 0.5]])


def _loop_additive(noise_mass, module):
    """Channel.additive's matrix as a digit loop over Module.sub_idx."""
    n = module.size
    mat = np.zeros((n, n))
    for x in range(n):
        for z in range(n):
            mat[x, z] = noise_mass[module.sub_idx(z, x)]
    return mat


def _loop_general_additive(joint_mass, module):
    n, nz2 = module.size, joint_mass.shape[1]
    mat = np.zeros((n, n * nz2))
    for x in range(n):
        for z in range(n):
            mat[x, z * nz2 : (z + 1) * nz2] = joint_mass[module.sub_idx(z, x), :]
    return mat


class TestChannelTables:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sub_table_matches_sub_idx(self, q, n):
        mod = Module(q, n)
        table = mod.sub_table()
        for i in range(mod.size):
            for j in range(mod.size):
                assert table[i, j] == mod.sub_idx(i, j)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_additive_matrices_bit_identical_to_loop(self, q, n):
        mod = Module(q, n)
        rng = np.random.default_rng(10 * q + n)
        mass = rng.random(mod.size)
        noise = SubDist(Alphabet(mod.labels()), mass / mass.sum())
        assert np.array_equal(
            Channel.additive(noise, mod).matrix, _loop_additive(noise.mass, mod)
        )
        jm = rng.random((mod.size, 2))
        joint = JointDist(Alphabet(mod.labels()), Alphabet(("u", "v")), jm / jm.sum())
        assert np.array_equal(
            Channel.general_additive(joint, mod).matrix,
            _loop_general_additive(joint.mass, mod),
        )

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_additive_is_general_additive_with_one_side_symbol(self, q):
        mod = Module(q, 1)
        mass = np.random.default_rng(q).random(mod.size)
        noise = SubDist(Alphabet(mod.labels()), mass / mass.sum())
        w = Channel.additive(noise, mod)
        one_column = JointDist(noise.alphabet, Alphabet(("e",)), noise.mass[:, None])
        g = Channel.general_additive(one_column, mod)
        assert np.array_equal(w.matrix, g.matrix)
        assert (w.input_alphabet, w.output_alphabet) == (g.input_alphabet, g.output_alphabet)
        assert w.output_alphabet.symbols == mod.labels()
        assert w.structure_kind() == g.structure_kind() == "additive"
        assert w.verify_structure() == g.verify_structure() == 0.0

    def test_matrices_past_the_cell_cap_are_refused(self):
        mod = Module(2, 10)
        labels = Alphabet(mod.labels())
        noise = SubDist(labels, np.full(mod.size, 1.0 / mod.size))
        assert Channel.additive(noise, mod).matrix.size == 1 << 20
        joint = JointDist(labels, Alphabet(("u", "v")), np.full((mod.size, 2), 0.5 / mod.size))
        with pytest.raises(SizeLimitError, match="2097152 matrix cells exceed cap"):
            Channel.general_additive(joint, mod)


class TestPhiPsi:
    def test_zero_at_zero(self):
        w = example_channel()
        p = uniform_input(w)
        assert phi_channel(w, p, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert psi_channel(w, p, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_reference_example_mutual_information(self):
        assert example_channel_reported_info() == pytest.approx(0.119, abs=1e-4)
        # the matrix-derived value differs (mixture weight 1/2 - 4a, not 5a)
        w = example_channel()
        i_matrix = mutual_information(uniform_input(w), w)
        assert i_matrix == pytest.approx(0.1675, abs=1e-3)
        assert abs(i_matrix - example_channel_reported_info()) > 0.01

    def test_phi_slope_is_mutual_information(self):
        for w in (example_channel(), bsc(0.2)):
            p = uniform_input(w)
            eps = 1e-6
            slope = phi_channel(w, p, eps) / eps
            assert slope == pytest.approx(mutual_information(p, w), abs=1e-4)

    def test_additive_identity_hand_value(self):
        # binary additive channel with Bernoulli(0.2) noise at t = 1/2:
        # e^phi = sqrt(2) * sqrt(0.68) = 1.16619 via the closed form
        w = bsc(0.2)
        p = uniform_input(w)
        val = math.exp(phi_channel(w, p, 0.5))
        assert val == pytest.approx(1.16619, abs=1e-5)
        assert val == pytest.approx(
            2**0.5 * math.exp(-0.5 * renyi_tilde(SubDist.bernoulli(0.2), 1.0))
        )

    def test_phi_concave_in_input_distribution(self):
        rng = np.random.default_rng(8)
        w = example_channel()
        alph = w.input_alphabet
        for _ in range(20):
            a, b = rng.random(2)
            p1 = SubDist(alph, [a, 1 - a])
            p2 = SubDist(alph, [b, 1 - b])
            lam = float(rng.random())
            mix = SubDist(alph, lam * p1.mass + (1 - lam) * p2.mass)
            for t in (0.2, 0.5, 0.9):
                lhs = math.exp(phi_channel(w, mix, t))
                rhs = lam * math.exp(phi_channel(w, p1, t)) + (1 - lam) * math.exp(
                    phi_channel(w, p2, t)
                )
                assert lhs >= rhs - 1e-12


class TestExponents:
    def test_zero_at_mutual_information(self):
        w = example_channel()
        p = uniform_input(w)
        i = mutual_information(p, w)
        assert e_phi(i, w, p) == pytest.approx(0.0, abs=1e-9)
        assert e_psi(i, w, p) == pytest.approx(0.0, abs=1e-9)

    def test_positive_above_only(self):
        w = example_channel()
        p = uniform_input(w)
        i = mutual_information(p, w)
        assert e_phi(i + 0.05, w, p) > 1e-5
        assert e_phi(i - 0.05, w, p) == pytest.approx(0.0, abs=1e-9)

    def test_ordering_on_example_sweep(self):
        w = example_channel()
        p = uniform_input(w)
        for r in np.linspace(example_channel_reported_info(), math.log(2), 12):
            r = float(r)
            v_phi = e_phi(r, w, p)
            v_psi = e_psi(r, w, p)
            v_pin = psi_pinsker_exponent(r, w, p)
            assert v_phi >= v_psi - 1e-9
            assert v_psi >= v_pin - 1e-9

    def test_additive_channel_equality(self):
        w = bsc(0.2)
        p = uniform_input(w)
        for r in (0.3, 0.5, 0.65):
            assert e_phi(r, w, p) == pytest.approx(e_psi(r, w, p), abs=1e-9)


class TestCodeEvaluation:
    def test_noiseless_injective_zero_error(self):
        ident = Channel(range_alphabet(2), range_alphabet(2), np.eye(2))
        code = WiretapCode(2, np.eye(2), np.array([1, 2]))
        assert error_prob(code, ident) == 0.0

    def test_single_message_no_error(self):
        w = bsc(0.3)
        code = WiretapCode(1, [[0.5, 0.5]], np.array([1, 1]))
        assert error_prob(code, w) == 0.0

    def test_against_direct_enumeration(self):
        # 2 codewords of length 3 over BSC(0.1), ML decoding
        w3 = bsc(0.1).iid_extend(3)
        cb = (0, 5)  # 000 and 101
        code = code_from_codebook(cb, [1, 2], 2, 1, w3)
        expect_terms = []
        for i in (0, 1):
            for y in range(8):
                # ML over the two codewords, ties to the lower index
                scores = [w3.matrix[cb[0], y], w3.matrix[cb[1], y]]
                dec = 0 if scores[0] >= scores[1] else 1
                if dec != i:
                    expect_terms.append(0.5 * w3.matrix[cb[i], y])
        assert error_prob(code, w3) == pytest.approx(math.fsum(expect_terms), abs=1e-15)

    def test_identical_encoders_zero_distinguishability(self):
        w = bsc(0.2)
        code = WiretapCode(2, [[0.5, 0.5], [0.5, 0.5]], np.array([1, 2]))
        assert eve_distinguishability(code, w) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_nonfinite_encoders(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WiretapCode(2, [[bad, 0.5], [0.5, 0.5]], np.array([1, 2]))

    def test_disjoint_point_masses(self):
        ident = Channel(range_alphabet(2), range_alphabet(2), np.eye(2))
        code = WiretapCode(2, np.eye(2), np.array([1, 2]))
        assert eve_distinguishability(code, ident) == pytest.approx(1.0)


def exhaustive_instances():
    """(p, M, L, fam, WB, WE) with binary inputs, every combo enumerable."""
    alph = Alphabet(("0", "1"))
    wb1, we1 = bsc(0.1), bsc(0.3)
    wb2 = Channel(alph, alph, [[0.95, 0.05], [0.2, 0.8]])
    we2 = Channel(alph, alph, [[0.6, 0.4], [0.3, 0.7]])
    u = SubDist.uniform(alph)
    skew = SubDist(alph, [0.3, 0.7])
    return [
        (u, 2, 2, ToeplitzFamily(2, 2, 1), wb1, we1),
        (skew, 2, 2, ToeplitzFamily(2, 2, 1), wb1, we1),
        (u, 2, 2, ToeplitzFamily(2, 2, 1), wb2, we2),
        (u, 2, 2, FullyRandomFamilyBalancedProxy(), wb1, we1),
        (u, 4, 2, ToeplitzFamily(2, 3, 2), wb2, we2),
        (skew, 2, 4, ToeplitzFamily(2, 3, 1), wb1, we1),
    ]


class FullyRandomFamilyBalancedProxy(ToeplitzFamily):
    """Stand-in: Toeplitz over F_2 with k=2, m=1 (already balanced)."""

    def __init__(self):
        super().__init__(2, 2, 1)


class TestRandomCodingEnsemble:
    @pytest.mark.parametrize("idx", range(len(exhaustive_instances())))
    def test_ensemble_bounds_hold(self, idx):
        p, m, l, fam, wb, we = exhaustive_instances()[idx]
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        eps_bound = random_coding_error_bound(wb, p, m * l)
        d1_bound = random_coding_d1_bound(we, p, l)
        assert res.avg_eps <= eps_bound + 1e-12
        assert res.avg_d1 <= d1_bound + 1e-12
        # the two-sided selected code exists and meets twice both averages
        chosen = markov_select(res)
        assert chosen.eps <= 2.0 * res.avg_eps + 1e-12
        assert chosen.d1 <= 2.0 * res.avg_d1 + 1e-12

    def test_weights_normalize(self):
        p, m, l, fam, wb, we = exhaustive_instances()[1]
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        assert math.fsum(e.weight for e in res.entries) == pytest.approx(1.0, abs=1e-12)

    def test_single_message_distinguishability_zero(self):
        # M = 1: everything hashes together, Eve learns nothing about it
        alph = Alphabet(("0", "1"))
        u = SubDist.uniform(alph)
        we = bsc(0.3)
        for cb in itertools.product(range(2), repeat=2):
            code = code_from_codebook(cb, [1, 1], 1, 2, we)
            assert eve_distinguishability(code, we) == 0.0

    def test_rejects_unbalanced_family(self):
        alph3 = range_alphabet(4)
        fam = FullyRandomFamily(alph3, 2)  # not balanced
        u = SubDist.uniform(Alphabet(("0", "1")))
        with pytest.raises(ValueError, match="not balanced"):
            wiretap_ensemble_exact(u, 2, 2, fam, bsc(0.1), bsc(0.3))
        with pytest.raises(ValueError, match="not balanced"):
            wiretap_ensemble_mc(u, 2, 2, fam, bsc(0.1), bsc(0.3), n_samples=10)
        with pytest.raises(ValueError, match="not balanced"):
            random_wiretap_code(u, 2, 2, fam, bsc(0.1), np.random.default_rng(0))

    @pytest.mark.parametrize("k, m", [(20, 1), (20, 12), (3, 1)])
    def test_shape_and_distribution_are_checked_before_any_sweep(self, k, m, monkeypatch):
        # the family sweeps raise if reached: a wrong shape (2 x 2 messages
        # from 2^k inputs) or a sub-probability codeword law is refused first
        def sweep(fam):
            raise AssertionError("family swept before the cheap checks")

        monkeypatch.setattr(wiretap_module, "check_universal2", sweep)
        monkeypatch.setattr(wiretap_module, "check_balanced", sweep)
        fam = ToeplitzFamily(2, k, m)
        u = SubDist.uniform(Alphabet(("0", "1")))
        with pytest.raises(ValueError, match=r"family must map M\*L messages onto M outputs"):
            wiretap_ensemble_mc(u, 2, 2, fam, bsc(0.1), bsc(0.3), n_samples=10)
        with pytest.raises(ValueError, match=r"family must map M\*L messages onto M outputs"):
            random_wiretap_code(u, 2, 2, fam, bsc(0.1), np.random.default_rng(0))
        half = SubDist(u.alphabet, np.array([0.25, 0.25]))
        right = ToeplitzFamily(2, 2, 1)
        with pytest.raises(ValueError, match="random coding requires a probability distribution"):
            wiretap_ensemble_mc(half, 2, 2, right, bsc(0.1), bsc(0.3), n_samples=10)
        with pytest.raises(ValueError, match="random coding requires a probability distribution"):
            random_wiretap_code(half, 2, 2, right, bsc(0.1), np.random.default_rng(0))

    def test_mc_tracks_exact(self):
        p, m, l, fam, wb, we = exhaustive_instances()[0]
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        eps, d1 = wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=800, seed=2)
        assert abs(eps.value - res.avg_eps) <= 4 * max(eps.stderr, 1e-9)
        assert abs(d1.value - res.avg_d1) <= 4 * max(d1.stderr, 1e-9)

    def test_sampled_code_shape(self):
        p, m, l, fam, wb, we = exhaustive_instances()[0]
        code, cb, seed = random_wiretap_code(p, m, l, fam, wb, np.random.default_rng(0))
        assert code.m == m
        assert len(cb) == m * l

    def test_ensemble_error_against_independent_oracle(self):
        # recompute the ensemble-average decoding error from first
        # principles: enumerate codebooks, seeds, sent messages, codeword
        # draws inside the class, and channel outputs
        alph = Alphabet(("0", "1"))
        wb, we = bsc(0.1), bsc(0.3)
        p = SubDist(alph, [0.3, 0.7])
        m, l = 2, 2
        fam = ToeplitzFamily(2, 2, 1)
        maps = fam.maps_of(fam.seeds())
        total = []
        for cb in itertools.product(range(2), repeat=m * l):
            w_cb = float(np.prod(p.mass[list(cb)]))
            for f in maps:
                for i in range(1, m + 1):
                    cls = [c for c in range(m * l) if f[c] == i]
                    for c in cls:
                        x = cb[c]
                        for y in range(2):
                            # ML over the full codebook, lowest index wins
                            scores = [wb.matrix[cb[cc], y] for cc in range(m * l)]
                            best = max(range(m * l), key=lambda cc: (scores[cc], -cc))
                            if f[best] != i:
                                total.append(
                                    w_cb
                                    / len(maps)
                                    / m
                                    / len(cls)
                                    * wb.matrix[x, y]
                                )
        oracle = math.fsum(total)
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        assert res.avg_eps == pytest.approx(oracle, abs=1e-12)

    def test_distinguishability_against_joint_l1_oracle(self):
        # d1(Phi|E) as the L1 distance between the two explicit joints over
        # (message, eve-output)
        we = bsc(0.3)
        cb = (0, 1, 1, 0)
        f = [1, 2, 2, 1]
        code = code_from_codebook(cb, f, 2, 2, we)
        m = 2
        joint_real = np.zeros((m, 2))
        for i in range(m):
            for c in range(4):
                if f[c] == i + 1:
                    joint_real[i] += 0.5 * we.matrix[cb[c]] / 2  # 1/M * Q_i row
        eve_marginal = joint_real.sum(axis=0)
        joint_ideal = np.outer(np.full(m, 1.0 / m), eve_marginal)
        oracle = float(np.abs(joint_real - joint_ideal).sum())
        assert eve_distinguishability(code, we) == pytest.approx(oracle, abs=1e-14)

    def test_codeword_joint_bookkeeping(self):
        # e^(phi_cond(t | joint of uniform codeword and Eve)) equals
        # e^(phi(t | W, empirical codeword distribution)) / (ML)^t
        we = bsc(0.3)
        for cb in ((0, 1, 1, 0), (0, 0, 1, 0), (1, 1, 1, 1)):
            joint = uniform_codeword_joint(cb, we)
            counts = np.bincount(cb, minlength=2) / len(cb)
            p_cb = SubDist(we.input_alphabet, counts)
            for t in (0.1, 0.4):
                lhs = phi_cond(joint, t)
                rhs = phi_channel(we, p_cb, t) - t * math.log(len(cb))
                assert lhs == pytest.approx(rhs, abs=1e-12)


def _random_channel(rng, nx, ny):
    mat = rng.random((nx, ny)) ** 3  # uneven rows, with near-ties and clear winners
    mat /= mat.sum(axis=1, keepdims=True)
    return Channel(range_alphabet(nx), range_alphabet(ny), mat)


def _parity_instance(q, m, l):
    """Random channels over F_q with the Toeplitz family of `simulate wiretap`.
    Over F_3 with ML > 4 the last symbol gets zero mass, so zero-weight
    codebooks are skipped and the reference loop stays small."""
    rng = np.random.default_rng(100 * q + 10 * m + l)
    mass = rng.random(q) + 0.1
    if q == 3 and m * l > 4:
        mass[-1] = 0.0
    p = SubDist(range_alphabet(q), mass / mass.sum())
    fam = fit_toeplitz(m, l)
    return p, fam, _random_channel(rng, q, 3), _random_channel(rng, q, 4)


PARITY_CASES = [(q, m, l) for q in (2, 3) for m, l in ((2, 2), (2, 4), (3, 3))]


def _per_sample_draws(p, fam, ml, seed, count):
    """The codebooks and seeds of a per-sample rng.choice + sample_seed loop."""
    rng = np.random.default_rng(seed)
    drawn = [(rng.choice(p.alphabet.size, size=ml, p=p.mass), fam.sample_seed(rng)) for _ in range(count)]
    return tuple(np.array(part) for part in zip(*drawn))


def _one_hot_estimates(codebooks, seeds, fam, m, l, wb, we):
    """The Monte Carlo estimates of these draws by the one-hot oracle."""
    eps, d1 = one_hot_metrics(codebooks, fam.maps_of(seeds), m, l, wb, we)
    return tuple(EnsembleEstimate.from_samples(v.tolist()) for v in (eps, d1))


class TestBatchedEnsembleParity:
    """The batched kernel against code_from_codebook, error_prob and
    eve_distinguishability, entry by entry."""

    @pytest.mark.parametrize("q,m,l", PARITY_CASES)
    def test_exact_matches_per_entry_loop(self, q, m, l):
        p, fam, wb, we = _parity_instance(q, m, l)
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        maps = fam.maps_of(fam.seeds())
        ref, eps_terms, d1_terms = [], [], []
        for cb in itertools.product(range(q), repeat=m * l):
            w_cb = float(np.prod(p.mass[list(cb)]))
            if w_cb == 0.0:
                continue
            for s, f_map in enumerate(maps):
                code = code_from_codebook(cb, f_map, m, l, wb)
                eps, d1 = error_prob(code, wb), eve_distinguishability(code, we)
                weight = w_cb / len(maps)
                ref.append((cb, s, weight, eps, d1))
                eps_terms.append(weight * eps)
                d1_terms.append(weight * d1)
        assert len(res.entries) == len(ref)
        assert len(res.entries) == len(res.codebooks) * fam.seed_count
        for entry, (cb, s, weight, eps, d1) in zip(res.entries, ref):
            assert entry.codebook == cb and entry.seed_index == s
            assert abs(entry.weight - weight) <= 1e-15
            assert abs(entry.eps - eps) <= 1e-15
            assert abs(entry.d1 - d1) <= 1e-15
        avg_eps, avg_d1 = math.fsum(eps_terms), math.fsum(d1_terms)
        assert abs(res.avg_eps - avg_eps) <= 1e-15
        assert abs(res.avg_d1 - avg_d1) <= 1e-15
        first = next(
            i
            for i, (_, _, _, eps, d1) in enumerate(ref)
            if eps <= 2.0 * avg_eps + 1e-12 and d1 <= 2.0 * avg_d1 + 1e-12
        )
        chosen = markov_select(res)
        assert (chosen.codebook, chosen.seed_index) == ref[first][:2]
        assert chosen is res.entries[first]

    @pytest.mark.parametrize("q,m,l", [(2, 2, 4), (3, 3, 3)])
    def test_seed_maps_split_into_blocks(self, q, m, l, monkeypatch):
        p, fam, wb, we = _parity_instance(q, m, l)
        whole = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        mc = wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=50, seed=2)
        cells, n_seeds = wiretap_module._kernel_cells(m, l, wb, we), fam.seed_count
        kernel = wiretap_module._metrics
        shapes = []

        def counted(rows, *args):
            shapes.append(rows.shape[:-2])
            return kernel(rows, *args)

        monkeypatch.setattr(wiretap_module, "_metrics", counted)
        # exact mode cuts blocks of two codebooks, each with all its seeds,
        # then blocks of three seeds of one codebook when a codebook's seeds
        # overflow a block
        n_codebooks = len(whole.codebooks)
        pairs = [(2, n_seeds)] * (n_codebooks // 2) + [(1, n_seeds)] * (n_codebooks % 2)
        seed_blocks = [(1, len(range(n_seeds)[s : s + 3])) for s in range(0, n_seeds, 3)]
        for block_cells, expected in [
            (2 * n_seeds * cells, pairs),
            (3 * cells, seed_blocks * n_codebooks),
        ]:
            monkeypatch.setattr(dists, "BLOCK_CELLS", block_cells)
            shapes.clear()
            split = wiretap_ensemble_exact(p, m, l, fam, wb, we)
            for key in ("weight", "eps", "d1", "codebooks"):
                np.testing.assert_array_equal(getattr(split, key), getattr(whole, key))
            assert (split.avg_eps, split.avg_d1) == (whole.avg_eps, whole.avg_d1)
            assert shapes == expected
        # the sampled mode: three samples per block
        shapes.clear()
        assert wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=50, seed=2) == mc
        assert len(shapes) == 17 and max(shapes) == (3,)

    @pytest.mark.parametrize("q,m,l", PARITY_CASES)
    def test_class_rows_equal_the_one_hot_kernel(self, q, m, l):
        p, fam, wb, we = _parity_instance(q, m, l)
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        maps = fam.maps_of(fam.seeds())
        codebooks = np.repeat(res.codebooks, len(maps), axis=0)
        eps, d1 = one_hot_metrics(codebooks, np.tile(maps, (len(res.codebooks), 1)), m, l, wb, we)
        assert np.array_equal(res.eps, eps) and np.array_equal(res.d1, d1)
        # the sampled ensemble, on the draws of a per-sample loop
        expected = _one_hot_estimates(*_per_sample_draws(p, fam, m * l, 4, 300), fam, m, l, wb, we)
        assert wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=300, seed=4) == expected

    @pytest.mark.parametrize("q,m,l", [(2, 2, 8), (2, 2, 16), (3, 3, 9)])
    def test_long_classes_equal_the_one_hot_kernel(self, q, m, l):
        # classes of L >= 8 codewords, where a pairwise sum would round
        # differently from one += per codeword
        p, fam, wb, we = _parity_instance(q, m, l)
        expected = _one_hot_estimates(*_per_sample_draws(p, fam, m * l, 6, 200), fam, m, l, wb, we)
        assert wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=200, seed=6) == expected

    def test_draws_are_the_per_sample_choice_stream(self, monkeypatch):
        # a non-uniform p over q = 5 with a zero-mass symbol: the sampled
        # ensemble (in blocks of seven samples) and random_wiretap_code draw
        # what per-sample rng.choice(.., p=p.mass) and sample_seed calls draw
        m, l = 2, 4
        p = SubDist(range_alphabet(5), [0.1, 0.35, 0.0, 0.2, 0.35])
        fam, rng = fit_toeplitz(m, l), np.random.default_rng(5)
        wb, we = _random_channel(rng, 5, 3), _random_channel(rng, 5, 4)
        draw, draws = wiretap_module._draw, []
        monkeypatch.setattr(wiretap_module, "_draw", lambda *a: draws.append(draw(*a)) or draws[-1])
        monkeypatch.setattr(dists, "BLOCK_CELLS", 7 * wiretap_module._kernel_cells(m, l, wb, we))
        estimates = wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=60, seed=9)
        codebooks, seeds = _per_sample_draws(p, fam, m * l, 9, 60)
        assert len(draws) == 9 and 2 not in codebooks
        np.testing.assert_array_equal(np.concatenate([d[0] for d in draws]), codebooks)
        np.testing.assert_array_equal(np.concatenate([d[1] for d in draws]), seeds)
        assert estimates == _one_hot_estimates(codebooks, seeds, fam, m, l, wb, we)
        rng = np.random.default_rng(11)
        for codebook, seed in zip(*_per_sample_draws(p, fam, m * l, 11, 5)):
            code, got_codebook, got_seed = random_wiretap_code(p, m, l, fam, wb, rng)
            assert got_codebook == tuple(codebook.tolist()) and got_seed == tuple(seed.tolist())
            ref = code_from_codebook(codebook, fam.as_map(seed), m, l, wb)
            assert_bit_equal(code.encoders, ref.encoders)
            assert_bit_equal(code.decoder, ref.decoder)

    @pytest.mark.parametrize("q,m,l", PARITY_CASES)
    def test_mc_matches_per_sample_loop(self, q, m, l):
        p, fam, wb, we = _parity_instance(q, m, l)
        estimates = wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=300, seed=4)
        eps_vals, d1_vals = [], []
        for cb, seed in zip(*_per_sample_draws(p, fam, m * l, 4, 300)):
            code = code_from_codebook(cb, fam.as_map(seed), m, l, wb)
            eps_vals.append(error_prob(code, wb))
            d1_vals.append(eve_distinguishability(code, we))
        for est, vals in zip(estimates, (eps_vals, d1_vals)):
            mean = math.fsum(vals) / len(vals)
            var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            se = math.sqrt(var / len(vals))
            assert abs(est.value - mean) <= 1e-15
            assert abs(est.stderr - se) <= 1e-15
            assert (est.mode, est.n_samples) == ("mc", 300)

    def test_entries_are_a_read_only_lazy_view(self):
        p, fam, wb, we = _parity_instance(2, 2, 2)
        res = wiretap_ensemble_exact(p, 2, 2, fam, wb, we)
        assert res.entries[0] is res.entries[0]
        assert res.entries[-1] is res.entries[len(res.entries) - 1]
        assert list(res.entries)[1] is res.entries[1]
        with pytest.raises(IndexError):
            res.entries[len(res.entries)]
        with pytest.raises(ValueError):
            res.eps[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            res.entries = ()
        with pytest.raises(FrozenInstanceError):
            res.avg_eps = 0.0

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_mc_needs_two_samples(self, n_samples, monkeypatch):
        # refused before the family is checked or any seed is drawn
        def no_work(*args):
            raise AssertionError("work done before the sample count was checked")

        p, fam, wb, we = _parity_instance(2, 2, 2)
        for name in ("check_universal2", "check_balanced"):
            monkeypatch.setattr(wiretap_module, name, no_work)
        monkeypatch.setattr(HashFamily, "sample_seed", no_work)
        monkeypatch.setattr(HashFamily, "draw_seeds", no_work)
        with pytest.raises(ValueError, match="at least 2 samples"):
            wiretap_ensemble_mc(p, 2, 2, fam, wb, we, n_samples=n_samples)

    def test_exact_caps_come_before_the_family_checks(self, monkeypatch):
        # 2^16 codebooks x 8 seeds of 16 (2 + 256 + 256) kernel cells each
        def no_check(*args):
            raise AssertionError("family checked before the caps")

        for name in ("check_universal2", "check_balanced"):
            monkeypatch.setattr(wiretap_module, name, no_check)
        wide = Channel(range_alphabet(2), range_alphabet(256), np.full((2, 256), 1 / 256))
        u = SubDist.uniform(range_alphabet(2))
        with pytest.raises(SizeLimitError, match=r"4311744512 kernel cells \(524288 entries"):
            wiretap_ensemble_exact(u, 2, 8, ToeplitzFamily(2, 4, 1), wide, wide)


def _scalar_linear_code(module, generators):
    """Message codewords by a per-message loop of scalar field calls."""
    f = module.field
    words = []
    for u in itertools.product(range(module.q), repeat=len(generators)):
        acc = (0,) * module.n
        for coef, g in zip(u, generators):
            acc = tuple(f.add(a, f.mul(coef, b)) for a, b in zip(acc, g))
        words.append(module.index(acc))
    return tuple(words)


def _subcodes_by_sets(c1, m):
    """Reference: each Toeplitz seed's kernel subcode as a set of codewords."""
    fam = ToeplitzFamily(c1.module.q, c1.k, m)
    return [
        frozenset(c1.message_codewords[u] for u in np.flatnonzero(f_map == 1))
        for f_map in fam.maps_of(fam.seeds())
    ]


def _cosets_by_sets(c1, members):
    """Reference: cosets of a subcode in C1 by set algebra, ordered by
    smallest member."""
    mod = c1.module
    remaining = set(c1.codewords)
    cosets = []
    for x in c1.codewords:
        if x in remaining:
            coset = sorted(mod.add_idx(x, c) for c in members)
            cosets.append(coset)
            remaining -= set(coset)
    return cosets


def _coset_code_by_sets(c1, members, wb):
    """Reference coset code: uniform encoder per coset, ML over C1 with ties
    to the lowest codeword, then the coset of the winner."""
    cosets = _cosets_by_sets(c1, members)
    enc = np.zeros((len(cosets), c1.module.size))
    coset_of = {}
    for i, coset in enumerate(cosets):
        enc[i, coset] = 1.0 / len(coset)
        coset_of.update((x, i + 1) for x in coset)
    cw = np.array(c1.codewords)
    best = np.argmax(wb.matrix[cw, :], axis=0)
    return WiretapCode(len(cosets), enc, [coset_of[int(cw[b])] for b in best])


def _condition4_by_sets(c1, subcodes):
    """Reference: the largest share of subcodes holding one nonzero codeword."""
    zero = c1.message_codewords[0]
    return max(
        sum(1 for members in subcodes if x in members) / len(subcodes)
        for x in c1.codewords
        if x != zero
    )


def _random_linear_code(rng, q, n, k):
    while True:
        try:
            return LinearCode(Module(q, n), rng.integers(0, q, size=(k, n)))
        except ValueError:
            continue


class TestLinearCosetCodes:
    def full_space(self) -> LinearCode:
        return LinearCode(Module(2, 2), [(1, 0), (0, 1)])

    def subgroup_code(self) -> LinearCode:
        return LinearCode(Module(2, 3), [(1, 0, 0), (0, 1, 1)])

    def additive_wb(self, mod: Module) -> Channel:
        mass = np.full(mod.size, 0.15 / (mod.size - 1))
        mass[0] = 0.85
        return Channel.additive(SubDist(Alphabet(mod.labels()), mass), mod)

    def test_span_enumeration(self):
        c1 = self.subgroup_code()
        assert c1.size == 4
        assert c1.codewords == (0, 3, 4, 7)  # 000, 011, 100, 111

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            LinearCode(Module(2, 2), [(1, 1), (1, 1)])

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_codewords_match_scalar_field_loop(self, q):
        rng = np.random.default_rng(q)
        for n, k in ((1, 1), (3, 2), (4, 3), (3, 3)):
            c1 = _random_linear_code(rng, q, n, k)
            words = _scalar_linear_code(c1.module, c1.generators)
            assert c1.message_codewords == words
            assert c1.codewords == tuple(sorted(words))
            assert all(type(w) is int for w in c1.message_codewords)

    def test_subcode_sizes_and_nesting(self):
        # a seed's subcode is the class of output 1: the kernel of its map
        c1 = self.full_space()
        fam = ToeplitzFamily(2, 2, 1)
        maps = fam.maps_of(fam.seeds())
        assert len(maps) == 2  # q^(k-1) seeds
        for f_map in maps:
            kernel = np.flatnonzero(f_map == 1)
            assert len(kernel) == 2
            assert 0 in kernel  # kernels contain the zero message

    def test_condition4_exhaustive(self):
        for c1, m in ((self.full_space(), 1), (self.subgroup_code(), 1)):
            rep = condition4_report(c1, m)
            assert rep.passed, rep
            assert rep.bound == 0.5

    def test_full_subcode_single_message(self):
        c1 = self.full_space()
        mod = Module(2, 2)
        code = coset_code(c1, np.ones(c1.size), self.additive_wb(mod))
        assert code.m == 1
        we = Channel.additive(
            SubDist(Alphabet(mod.labels()), [0.7, 0.1, 0.1, 0.1]), mod
        )
        assert eve_distinguishability(code, we) == 0.0

    def test_trivial_subcode_point_masses(self):
        c1 = self.full_space()
        code = coset_code(c1, np.arange(1, 5), self.additive_wb(Module(2, 2)))
        assert code.m == 4
        np.testing.assert_allclose(code.encoders, np.eye(4))

    def test_coset_decomposition_partitions(self):
        # the encoders' supports are the cosets: translates of the kernel
        # subcode that split C1
        c1 = self.subgroup_code()
        fam = ToeplitzFamily(2, 2, 1)
        f_map = fam.as_map((1,))
        code = coset_code(c1, f_map, self.additive_wb(c1.module))
        supports = [np.flatnonzero(row) for row in code.encoders]
        assert sorted(x for sup in supports for x in sup.tolist()) == list(c1.codewords)
        kernel = {c1.message_codewords[u] for u in np.flatnonzero(f_map == 1)}
        for sup in supports:
            x = int(sup[0])
            assert {c1.module.add_idx(x, c) for c in kernel} == set(sup.tolist())

    def test_map_must_cover_the_messages(self):
        c1 = self.full_space()
        with pytest.raises(ValueError, match=re.escape("map must have shape (4,)")):
            coset_code(c1, [1, 2], self.additive_wb(Module(2, 2)))

    def test_ensemble_below_bounds_additive(self):
        # Eve sees the input through an additive channel on F_2^2
        mod = Module(2, 2)
        noise = SubDist(Alphabet(mod.labels()), [0.64, 0.16, 0.16, 0.04])
        we = Channel.additive(noise, mod)
        c1 = self.full_space()
        est = coset_ensemble_d1(c1, 1, we)
        assert (est.mode, est.stderr) == ("exact", None)
        l = 2
        assert est.value <= coset_d1_bound(we, c1, l) + 1e-12
        assert est.value <= coset_d1_bound_closed(we, l) + 1e-12
        # Markov: some seed achieves twice the average
        fam = ToeplitzFamily(2, 2, 1)
        wb = self.additive_wb(mod)
        values = [
            eve_distinguishability(coset_code(c1, f_map, wb), we)
            for f_map in fam.maps_of(fam.seeds())
        ]
        assert min(values) <= 2.0 * est.value + 1e-12

    def test_ensemble_below_bounds_subgroup(self):
        mod = Module(2, 3)
        noise = iid_extend(SubDist(Alphabet(("0", "1")), [0.8, 0.2]), 3)
        noise = SubDist(Alphabet(mod.labels()), noise.mass)
        we = Channel.additive(noise, mod)
        c1 = self.subgroup_code()
        avg = coset_ensemble_d1(c1, 1, we).value
        assert avg <= coset_d1_bound(we, c1, 2) + 1e-12
        # proper subgroup: restricted phi never beats the full-alphabet form
        assert coset_d1_bound(we, c1, 2) <= coset_d1_bound_closed(we, 2) + 1e-12

    def test_phi_shift_invariance_additive(self):
        mod = Module(2, 2)
        noise = SubDist(Alphabet(mod.labels()), [0.5, 0.3, 0.1, 0.1])
        we = Channel.additive(noise, mod)
        c1 = LinearCode(mod, [(1, 1)])
        base = uniform_on_subset(we.input_alphabet, c1.codewords)
        shifted = uniform_on_subset(
            we.input_alphabet, [mod.add_idx(x, 1) for x in c1.codewords]
        )
        for t in (0.2, 0.45):
            assert phi_channel(we, base, t) == pytest.approx(
                phi_channel(we, shifted, t), abs=1e-12
            )

    def test_ml_decoder_coset_code(self):
        mod = Module(2, 2)
        wb = Channel.additive(
            SubDist(Alphabet(mod.labels()), [0.85, 0.05, 0.05, 0.05]), mod
        )
        c1 = self.full_space()
        fam = ToeplitzFamily(2, 2, 1)
        code = coset_code(c1, fam.as_map((0,)), wb)
        assert error_prob(code, wb) <= 0.5


# (q, n, k, m): random generators of a k-dimensional C1 in F_q^n
COSET_PARITY_CASES = [
    (2, 3, 3, 1),
    (2, 4, 3, 2),
    (2, 5, 4, 2),
    (2, 6, 5, 3),
    (3, 3, 2, 1),
    (3, 3, 3, 2),
    (4, 2, 2, 1),
    (4, 3, 3, 2),
]


class TestCosetParity:
    """Coset codes as hash-partition codes against the set-based coset loop."""

    @pytest.mark.parametrize("q,n,k,m", COSET_PARITY_CASES)
    def test_matches_set_based_cosets(self, q, n, k, m):
        rng = np.random.default_rng(1000 * q + 100 * n + 10 * k + m)
        c1 = _random_linear_code(rng, q, n, k)
        wb = _random_channel(rng, q**n, 3)
        we = _random_channel(rng, q**n, 4)
        fam = ToeplitzFamily(q, k, m)
        subcodes = _subcodes_by_sets(c1, m)
        ref_values = []
        for f_map, members in zip(fam.maps_of(fam.seeds()), subcodes):
            code = coset_code(c1, f_map, wb)
            ref = _coset_code_by_sets(c1, members, wb)
            assert code.m == ref.m == q**m
            assert error_prob(code, wb) == error_prob(ref, wb)
            assert eve_distinguishability(code, we) == eve_distinguishability(ref, we)
            ref_values.append(eve_distinguishability(ref, we))
        est = coset_ensemble_d1(c1, m, we)
        assert est.value == pytest.approx(math.fsum(ref_values) / len(ref_values), abs=1e-15)
        rep = condition4_report(c1, m)
        assert rep.max_membership == _condition4_by_sets(c1, subcodes)
        assert rep.passed

    @pytest.mark.parametrize("q,n,k,m", [(2, 4, 3, 2), (3, 3, 2, 1)])
    def test_eve_distinguishability_ignores_message_order(self, q, n, k, m):
        # Eve's mixture is an exact column sum, so renumbering the messages
        # of a code leaves her distinguishability bit-identical
        rng = np.random.default_rng(1000 * q + 100 * n + 10 * k + m)
        c1 = _random_linear_code(rng, q, n, k)
        wb = _random_channel(rng, q**n, 3)
        we = _random_channel(rng, q**n, 4)
        fam = ToeplitzFamily(q, k, m)
        for f_map in fam.maps_of(fam.seeds()):
            code = coset_code(c1, f_map, wb)
            value = eve_distinguishability(code, we)
            for perm in itertools.permutations(range(code.m)):
                renumbered = np.argsort(perm)[code.decoder - 1] + 1
                shuffled = WiretapCode(code.m, code.encoders[list(perm)], renumbered)
                assert eve_distinguishability(shuffled, we) == value
                assert error_prob(shuffled, wb) == error_prob(code, wb)

    @pytest.mark.parametrize(
        "q,k,m", [(2, 3, 1), (2, 5, 2), (2, 6, 4), (3, 3, 1), (3, 4, 2), (4, 3, 2), (5, 3, 1)]
    )
    def test_condition4_is_the_kernel_counts(self, q, k, m):
        # oracle: walk every seed map and count the messages sent to output 1
        c1 = _random_linear_code(np.random.default_rng(10 * q + k), q, k, k)
        fam = ToeplitzFamily(q, k, m)
        hits = sum((maps == 1).sum(axis=0) for maps in fam.iter_maps())
        rep = condition4_report(c1, m)
        assert rep.max_membership == float(hits[1:].max()) / fam.seed_count
        assert rep.passed

    def test_ensemble_reads_map_blocks(self, monkeypatch):
        # the ensemble is the same when the seed maps come in many blocks
        rng = np.random.default_rng(7)
        c1 = _random_linear_code(rng, 2, 5, 4)
        we = _random_channel(rng, 32, 3)
        whole = coset_ensemble_d1(c1, 2, we).value
        whole_rep = condition4_report(c1, 2)
        monkeypatch.setattr(dists, "BLOCK_CELLS", 40)
        assert coset_ensemble_d1(c1, 2, we).value == whole
        assert condition4_report(c1, 2) == whole_rep


def _renyi_closed_form(noise: SubDist, t: float) -> float:
    """|X|^t e^(-(1-t) H~_(1/(1-t))(noise)): the unconditional closed form of
    an additive channel."""
    return noise.alphabet.size**t * np.exp(-(1.0 - t) * renyi_tilde(noise, t / (1.0 - t)))


def _additive_noises():
    rng = np.random.default_rng(16)
    for q in (2, 3, 4):
        for _ in range(3):
            mass = rng.random(q)
            yield SubDist(range_alphabet(q), mass / mass.sum())
    yield SubDist(range_alphabet(2), [1.0, 0.0])


class TestAdditiveClosedForms:
    """A plain additive channel's closed forms, read off its one-column noise
    joint, equal the unconditional Renyi expressions."""

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_coset_bound_matches_renyi_form(self, l):
        for noise in _additive_noises():
            we = Channel.additive(noise, Module(noise.alphabet.size, 1))
            fn = lambda t: -(_renyi_closed_form(noise, t) / l**t)
            reference = -3.0 * maximize_on_interval(fn, 0.0, 0.5)[1]
            assert coset_d1_bound_closed(we, l) == pytest.approx(reference, abs=1e-12)

    def test_identities_match_renyi_form_and_escort(self):
        for noise in _additive_noises():
            w = Channel.additive(noise, Module(noise.alphabet.size, 1))
            for t in (0.0, 0.25, 0.5, 0.75):
                rep = additive_identities(w, t)
                assert rep.closed_form == pytest.approx(_renyi_closed_form(noise, t), abs=1e-12)
                assert rep.escort_form == pytest.approx(rep.phi_form, abs=1e-12)


class TestAdditiveIdentities:
    def test_hand_value_three_ways(self):
        w = bsc(0.2)
        rep = additive_identities(w, 0.5)
        assert rep.max_discrepancy <= 1e-10
        assert rep.phi_form == pytest.approx(1.16619, abs=1e-5)

    def test_noiseless_point_mass(self):
        mod = Module(2, 1)
        noise = SubDist(Alphabet(("0", "1")), [1.0, 0.0])
        w = Channel.additive(noise, mod)
        for t in (0.25, 0.5):
            rep = additive_identities(w, t)
            assert rep.max_discrepancy <= 1e-10
            assert rep.phi_form == pytest.approx(2**t, abs=1e-12)

    def test_general_additive_exact_pairings(self):
        # the psi expression equals the conditional closed form exactly and
        # the phi expression equals the escort form exactly; the two pairs
        # are separated by a strictly positive reverse-Holder slack whenever
        # the conditional collision sums vary with the side symbol
        j = JointDist(range_alphabet(2), Alphabet(("u", "v")), [[0.4, 0.1], [0.2, 0.3]])
        w = Channel.general_additive(j, Module(2, 1))
        for t in (0.0, 0.3, 0.5):
            rep = additive_identities(w, t)
            assert rep.psi_form == pytest.approx(rep.closed_form, abs=1e-12)
            assert rep.phi_form == pytest.approx(rep.escort_form, abs=1e-12)
            assert rep.phi_form <= rep.psi_form + 1e-12
        assert additive_identities(w, 0.3).max_discrepancy > 1e-6

    def test_general_additive_collapses_when_side_independent(self):
        # independent side coordinate: both closed forms coincide and the
        # stated three-way identity holds exactly
        j = JointDist.independent(
            SubDist.bernoulli(0.2), SubDist(Alphabet(("u", "v")), [0.3, 0.7])
        )
        w = Channel.general_additive(j, Module(2, 1))
        for t in (0.0, 0.3, 0.5):
            rep = additive_identities(w, t)
            assert rep.max_discrepancy <= 1e-10

    def test_requires_tag(self):
        w = example_channel()
        with pytest.raises(ValueError):
            additive_identities(w, 0.3)


class TestHolderOrdering:
    def test_equality_at_zero(self):
        w = example_channel()
        rep = holder_ordering(w, uniform_input(w), t_grid=[0.0])
        assert rep.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_strict_inequality_on_example(self):
        w = example_channel()
        rep = holder_ordering(w, uniform_input(w))
        assert rep.passed
        interior = holder_ordering(w, uniform_input(w), t_grid=[0.3])
        assert interior.min_margin > 1e-6

    def test_equality_for_additive_uniform(self):
        w = bsc(0.2)
        rep = holder_ordering(w, uniform_input(w))
        assert rep.passed
        assert abs(rep.min_margin) <= 1e-10


class TestChannelOrderArrays:
    """phi_channel and psi_channel take an array of orders and give the
    scalar call's value for each, across several blocks of BLOCK_CELLS."""

    @pytest.fixture(scope="class")
    def channel(self):
        mat = np.random.default_rng(19).random((256, 64))
        mat /= mat.sum(axis=1, keepdims=True)
        return Channel(range_alphabet(256), range_alphabet(64), mat)

    @staticmethod
    def input_dist(channel, seed):
        mass = np.random.default_rng(seed).random(channel.input_alphabet.size)
        return SubDist(channel.input_alphabet, mass / mass.sum())

    def test_phi_channel(self, channel):
        p = self.input_dist(channel, 20)
        orders = np.r_[np.linspace(-1.0, 0.9, 100), 0.0, 0.5]
        assert_order_parity(lambda t: phi_channel(channel, p, t), orders, 256 * 64)

    def test_psi_channel(self, channel):
        p = self.input_dist(channel, 21)
        orders = np.r_[np.linspace(-0.9, 1.0, 100), 0.0, 0.5]
        assert_order_parity(lambda t: psi_channel(channel, p, t), orders, 256 * 64)

    def test_one_invalid_order_raises(self):
        w = example_channel()
        p = uniform_input(w)
        with pytest.raises(ValueError):
            phi_channel(w, p, np.array([0.2, 1.0]))
        with pytest.raises(ValueError):
            psi_channel(w, p, np.array([0.5, -1.0, 0.1]))


class TestGridAsOneArrayCall:
    """Each wiretap exponent and bound equals the optimizer that evaluates its
    grid one float at a time, at 20 rates (or sizes) each."""

    @pytest.mark.parametrize("form", [e_phi, e_psi, psi_pinsker_exponent])
    def test_figure4_exponents(self, form, optimizer_calls):
        w = example_channel()
        p = uniform_input(w)
        for r in np.linspace(0.0, math.log(2.0), 20):
            form(float(r), w, p)
        assert_matches_scalar_optimizer(optimizer_calls, 20)

    def test_random_coding_bounds(self, optimizer_calls):
        w = example_channel()
        p = uniform_input(w)
        for size in range(1, 21):
            random_coding_error_bound(w, p, size)
            random_coding_d1_bound(w, p, size)
        assert_matches_scalar_optimizer(optimizer_calls, 40)

    def test_coset_closed_forms(self, optimizer_calls):
        j = JointDist(range_alphabet(2), Alphabet(("u", "v")), [[0.4, 0.1], [0.2, 0.3]])
        for l in range(1, 11):
            coset_d1_bound_closed(bsc(0.2), l)
            coset_d1_bound_closed(Channel.general_additive(j, Module(2, 1)), l)
        assert_matches_scalar_optimizer(optimizer_calls, 20)


class TestRateArrays:
    """The figure 4 exponents at an array of rates equal, bit for bit, the
    same exponent at each rate alone."""

    @pytest.mark.parametrize("form", [e_phi, e_psi, psi_pinsker_exponent])
    def test_equals_per_rate(self, form):
        rng = np.random.default_rng(67)
        w = example_channel()
        cases = [(w, uniform_input(w))]
        for nx, ny in ((2, 2), (2, 4), (3, 3), (4, 2), (4, 4)):
            mat = rng.random((nx, ny)) + 0.01
            w = Channel(range_alphabet(nx), range_alphabet(ny), mat / mat.sum(1, keepdims=True))
            raw = rng.random(nx) + 0.05
            cases.append((w, SubDist(w.input_alphabet, raw / raw.sum())))
        for w, p in cases:
            # the top rates put the maximizer at the interval end (t = 1/2, s = 1)
            rates = np.linspace(0.0, 2.0 * math.log(w.output_alphabet.size) + 1.0, 20)
            values = form(rates, w, p)
            assert values.shape == rates.shape
            assert values.tolist() == [form(r, w, p) for r in rates.tolist()]

    def test_top_rates_end_at_the_interval_end(self):
        w = example_channel()
        p = uniform_input(w)
        r = np.array([3.0, 4.0])
        assert e_phi(r, w, p).tolist() == [x * 0.5 - phi_channel(w, p, 0.5) for x in r.tolist()]
        assert e_psi(r, w, p).tolist() == [(x - psi_channel(w, p, 1.0)) / 2.0 for x in r.tolist()]
