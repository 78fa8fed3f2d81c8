import itertools
import math

import numpy as np
import pytest

from secexp.dists import (
    Alphabet,
    JointDist,
    SubDist,
    iid_extend,
    range_alphabet,
    renyi_tilde,
)
from secexp.exponents import phi_cond
from secexp.figures import (
    example_channel,
    example_channel_reported_info,
)
from secexp.gf import Module
from secexp.hashing import FullyRandomFamily, ToeplitzFamily
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
    coset_decomposition,
    coset_ensemble_d1,
    e_phi,
    e_psi,
    enumerate_subcodes,
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
        ext = w.iid_extend(2)
        assert ext.structure_kind() == "additive"
        np.testing.assert_allclose(ext.matrix, np.kron(w.matrix, w.matrix), atol=1e-15)

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

    def test_phi_additivity_under_extension(self):
        w = bsc(0.15)
        p1 = uniform_input(w)
        ext = w.iid_extend(3)
        p3 = uniform_input(ext)
        for t in (0.3, -0.4):
            assert phi_channel(ext, p3, t) == pytest.approx(
                3.0 * phi_channel(w, p1, t), abs=1e-12
            )


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

    def test_mc_tracks_exact(self):
        p, m, l, fam, wb, we = exhaustive_instances()[0]
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        stats = wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples=800, seed=2)
        assert abs(stats["eps"] - res.avg_eps) <= 4 * max(stats["eps_stderr"], 1e-9)
        assert abs(stats["d1"] - res.avg_d1) <= 4 * max(stats["d1_stderr"], 1e-9)

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
        maps = list(fam.iter_maps())
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


class TestLinearCosetCodes:
    def full_space(self) -> LinearCode:
        return LinearCode(Module(2, 2), [(1, 0), (0, 1)])

    def subgroup_code(self) -> LinearCode:
        return LinearCode(Module(2, 3), [(1, 0, 0), (0, 1, 1)])

    def test_span_enumeration(self):
        c1 = self.subgroup_code()
        assert c1.size == 4
        assert c1.codewords == (0, 3, 4, 7)  # 000, 011, 100, 111

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            LinearCode(Module(2, 2), [(1, 1), (1, 1)])

    def test_subcode_sizes_and_nesting(self):
        c1 = self.full_space()
        subs = enumerate_subcodes(c1, 1)
        assert len(subs) == 2  # q^(k-1) seeds
        for _, members in subs:
            assert len(members) == 2
            assert members <= set(c1.codewords)
            assert 0 in members  # kernels contain the zero codeword

    def test_sample_subcode_matches_enumeration(self):
        from secexp.wiretap import sample_subcode

        c1 = self.full_space()
        enumerated = dict(enumerate_subcodes(c1, 1))
        rng = np.random.default_rng(4)
        for _ in range(6):
            seed, members = sample_subcode(c1, 1, rng)
            assert enumerated[seed] == members

    def test_condition4_exhaustive(self):
        for c1, m in ((self.full_space(), 1), (self.subgroup_code(), 1)):
            subs = enumerate_subcodes(c1, m)
            l = c1.size // (c1.module.q**m)
            rep = condition4_report(c1, subs, l)
            assert rep.passed, rep

    def test_full_subcode_single_message(self):
        c1 = self.full_space()
        all_members = frozenset(c1.codewords)
        code = coset_code(c1, all_members)
        assert code.m == 1
        we = Channel.additive(
            SubDist(Alphabet(Module(2, 2).labels()), [0.7, 0.1, 0.1, 0.1]),
            Module(2, 2),
        )
        assert eve_distinguishability(code, we) == 0.0

    def test_trivial_subcode_point_masses(self):
        c1 = self.full_space()
        code = coset_code(c1, frozenset({0}))
        assert code.m == 4
        np.testing.assert_allclose(code.encoders, np.eye(4))

    def test_coset_decomposition_partitions(self):
        c1 = self.subgroup_code()
        _, members = enumerate_subcodes(c1, 1)[1]
        cosets = coset_decomposition(c1, members)
        flat = sorted(x for c in cosets for x in c)
        assert flat == sorted(c1.codewords)

    def test_ensemble_below_bounds_additive(self):
        # Eve sees the input through an additive channel on F_2^2
        mod = Module(2, 2)
        noise = SubDist(Alphabet(mod.labels()), [0.64, 0.16, 0.16, 0.04])
        we = Channel.additive(noise, mod)
        c1 = self.full_space()
        avg, values = coset_ensemble_d1(c1, 1, we)
        l = 2
        assert avg <= coset_d1_bound(we, c1, l) + 1e-12
        assert avg <= coset_d1_bound_closed(we, l) + 1e-12
        # Markov: some seed achieves twice the average
        assert min(values) <= 2.0 * avg + 1e-12

    def test_ensemble_below_bounds_subgroup(self):
        mod = Module(2, 3)
        noise_bits = SubDist.bernoulli(0.8)  # stay within additive scope
        noise = iid_extend(SubDist(Alphabet(("0", "1")), [0.8, 0.2]), 3)
        noise = SubDist(Alphabet(mod.labels()), noise.mass)
        we = Channel.additive(noise, mod)
        c1 = self.subgroup_code()
        avg, _ = coset_ensemble_d1(c1, 1, we)
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
        _, members = enumerate_subcodes(c1, 1)[0]
        code = coset_code(c1, members, wb)
        assert error_prob(code, wb) <= 0.5


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
