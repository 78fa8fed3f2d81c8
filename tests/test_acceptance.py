"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 10 is split in three: the plain-additive identity and the
reverse-Holder ordering hold and are asserted green; the three-way identity
for general-additive channels is asserted faithfully as stated and FAILS,
because the psi and phi expressions provably differ there (strict reverse
Holder; see the module docs and tests/test_wiretap.py for the exact
pairings that do hold).  This red is intentional and documented.
"""

import itertools
import math
import time

import numpy as np

from secexp.dists import (
    Alphabet,
    JointDist,
    SubDist,
    iid_extend,
    range_alphabet,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
    smooth_truncate,
    l1_distance,
)
from secexp.exponents import (
    cond_renyi_tilde,
    critical_rate,
    hash_d1_bound_at,
    order2_d1_bound,
)
from secexp.figures import (
    example_channel_reported_info,
    figure_sweep,
)
from secexp.gf import Module
from secexp.hashing import FullyRandomFamily, ToeplitzFamily
from secexp.intrinsic import (
    build_specialized,
    check_specialized_identity,
    heavy_mass_lower_bound,
    specialized_d1_bound,
    specialized_map_d1,
)
from secexp.privacy import (
    d1_hashed,
    expected_collision_mass,
    expected_d1,
    subset_lower_bound,
)
from secexp.distill import (
    CorrelationTriple,
    distillation_d1_bound,
    distillation_error_bound,
    run_distillation,
)
from secexp.wiretap import (
    Channel,
    additive_identities,
    markov_select,
    phi_channel,
    psi_channel,
    random_coding_d1_bound,
    random_coding_error_bound,
    wiretap_ensemble_exact,
)

from conftest import random_dist, random_subdist
from test_privacy import fixture_instances


def verdict(criterion: str, passed: bool, detail: str = ""):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert passed, line


def test_criterion_01_reference_scalars(bern02):
    start = time.perf_counter()
    checks = [
        abs(shannon_entropy(bern02) - 0.500402) <= 1e-4,
        abs(renyi_tilde_derivative(bern02, 1.0) - 0.30469) <= 1e-4,
        abs((shannon_entropy(bern02) - math.log(3) / 24) - 0.454627) <= 1e-4,
        abs(critical_rate(bern02) - 0.223718) <= 1e-4,
        abs(example_channel_reported_info() - 0.119) <= 1e-4,
    ]
    elapsed = time.perf_counter() - start
    verdict(
        "01 reported scalars",
        all(checks) and elapsed < 1.0,
        f"5 scalars at 1e-4 in {elapsed:.3f}s",
    )


def _rows_by_curve(fig_id, points):
    data = figure_sweep(fig_id, points)
    by_x = {}
    for x, name, value in data.rows:
        by_x.setdefault(x, {})[name] = value
    return by_x


def test_criterion_02_figure_orderings():
    tol = 1e-9
    ok = True
    timings = []
    start = time.perf_counter()
    for x, curves in _rows_by_curve(2, 60).items():
        ok &= curves["hr_lower"] <= curves["cramer"] + tol
        ok &= curves["cramer"] <= curves["hr_upper"] + tol
    timings.append(time.perf_counter() - start)
    start = time.perf_counter()
    for x, curves in _rows_by_curve(3, 60).items():
        ok &= curves["phi_form"] >= curves["pinsker_form"] - tol
        ok &= curves["pinsker_form"] >= curves["no_smoothing"] - tol
    timings.append(time.perf_counter() - start)
    start = time.perf_counter()
    for x, curves in _rows_by_curve(4, 60).items():
        ok &= curves["e_phi"] >= curves["e_psi"] - tol
        ok &= curves["e_psi"] >= curves["psi_pinsker"] - tol
    timings.append(time.perf_counter() - start)
    ok &= all(t < 10.0 for t in timings)
    verdict(
        "02 figure orderings",
        ok,
        "sweeps 2/3/4 at 60 points in "
        + "/".join(f"{t:.2f}s" for t in timings),
    )


def test_criterion_03_hash_bound_over_fixtures():
    instances = fixture_instances()
    count = 0
    ok = len(instances) >= 50
    for p, m, fam in instances:
        exact = expected_d1(p, fam).value
        for s in np.linspace(0.0, 1.0, 21):
            ok &= exact <= hash_d1_bound_at(p, m, float(s)) + 1e-12
        ok &= exact <= order2_d1_bound(p, m) + 1e-12
        count += 1
    skew = SubDist(Alphabet(("a", "b", "c")), [0.5, 0.25, 0.25])
    oracle = expected_d1(skew, FullyRandomFamily(skew.alphabet, 2)).value
    ok &= oracle == 0.5
    verdict(
        "03 hashing bound sandwich",
        ok,
        f"{count} exact-ensemble instances; hand oracle = {oracle}",
    )


def test_criterion_04_subset_floor_exhaustive():
    rng = np.random.default_rng(404)
    sources = [
        SubDist.bernoulli(0.2),
        SubDist(Alphabet(("a", "b", "c")), [0.5, 0.25, 0.25]),
        random_dist(rng, 3),
        random_dist(rng, 4),
        SubDist(Alphabet(("a", "b", "c", "d")), [0.4, 0.3, 0.2, 0.1]),
    ]
    ok = True
    checked = 0
    for p in sources:
        n = p.alphabet.size
        for m in (2, 3):
            exact = expected_d1(p, FullyRandomFamily(p.alphabet, m)).value
            for k in range(m):
                for omega in itertools.combinations(range(n), k):
                    ok &= exact >= subset_lower_bound(p, m, omega) - 1e-12
                    checked += 1
    verdict("04 subset floor (strongly universal)", ok, f"{checked} subsets")


def test_criterion_05_leftover_hash():
    ok = True
    count = 0
    for p, m, fam in fixture_instances():
        avg = expected_collision_mass(p, fam)
        ok &= avg <= math.exp(-renyi_tilde(p, 1.0)) + p.total**2 / m + 1e-12
        count += 1
    rng = np.random.default_rng(505)
    for size in (2, 3, 4):
        for _ in range(4):
            p = random_subdist(rng, size)  # genuine sub-distributions
            for m in (2, 3):
                fam = FullyRandomFamily(p.alphabet, m)
                avg = expected_collision_mass(p, fam)
                ok &= avg <= math.exp(-renyi_tilde(p, 1.0)) + p.total**2 / m + 1e-12
                count += 1
    verdict("05 leftover hash", ok, f"{count} instances incl. sub-distributions")


def test_criterion_06_exponent_identities(bern02, ternary):
    ok = True
    worst = 0.0
    branches = set()
    h_b = shannon_entropy(bern02)
    for r in np.linspace(0.02, h_b, 50):
        rep = check_specialized_identity(bern02, float(r))
        branches.add(rep.branch)
        worst = max(worst, rep.max_discrepancy)
    h_t = shannon_entropy(ternary)
    for r in np.linspace(0.02, h_t, 50):
        rep = check_specialized_identity(ternary, float(r))
        branches.add(rep.branch)
        worst = max(worst, rep.max_discrepancy)
    ok &= worst <= 1e-5
    ok &= branches == {"slope<=R", "slope>R"}
    verdict(
        "06 identity sweeps",
        ok,
        f"max discrepancy {worst:.2e} over 100 rates, both branches; "
        "asymptotic tightness accepted via these finite checks + criterion 07",
    )


def test_criterion_07_specialized_maps(bern02):
    ok = True
    # exhaustive floor: every function from at most 8 strings into at most 4 cells
    floor_checked = 0
    for p, n in ((bern02, 2), (bern02, 3), (SubDist.bernoulli(0.35), 3)):
        ext = iid_extend(p, n)
        size = ext.alphabet.size
        for m in (2, 3, 4):
            bound = heavy_mass_lower_bound(ext, m)
            best = min(
                d1_hashed(ext, f, m)
                for f in itertools.product(range(1, m + 1), repeat=size)
            )
            ok &= best >= bound - 1e-12
            floor_checked += 1
    # construction guarantee for the canonical maps
    built_checked = 0
    for n in range(1, 7):
        for m in (2, 4, min(2**n, 16)):
            smap = build_specialized(bern02, n, m)
            d1 = specialized_map_d1(bern02, smap)
            ok &= d1 <= specialized_d1_bound(bern02, n, m)["bound"] + 1e-12
            ok &= smap.cells_assigned() <= m
            built_checked += 1
    verdict(
        "07 specialized maps",
        ok,
        f"{floor_checked} exhaustive floors, {built_checked} built maps",
    )


def test_criterion_08_smoothing_inequalities():
    rng = np.random.default_rng(808)
    ok = True
    s_grid = np.linspace(0.0, 1.0, 11)
    for _ in range(1000):
        size = int(rng.integers(2, 7))
        p = random_subdist(rng, size)
        r = float(rng.uniform(0.05, 4.0))
        kept, tail = smooth_truncate(p, r)
        ok &= abs(l1_distance(p, kept) - tail) <= 1e-15
        kept_mass = float(np.sum(kept.mass**2))
        for s in s_grid:
            ht = renyi_tilde(p, float(s))
            ok &= tail <= math.exp(-ht + s * r) + 1e-12
            ok &= kept_mass <= math.exp(-ht - (1.0 - s) * r) + 1e-12
    verdict("08 smoothing inequalities", ok, "1000 sub-distributions x 11-point s grid")


def _bsc(p_flip: float) -> Channel:
    noise = SubDist(Alphabet(("0", "1")), [1.0 - p_flip, p_flip])
    return Channel.additive(noise, Module(2, 1))


def test_criterion_09_wiretap_ensembles():
    alph = Alphabet(("0", "1"))
    wb_a, we_a = _bsc(0.1), _bsc(0.3)
    wb_b = Channel(alph, alph, [[0.95, 0.05], [0.2, 0.8]])
    we_b = Channel(alph, alph, [[0.6, 0.4], [0.3, 0.7]])
    u = SubDist.uniform(alph)
    skew = SubDist(alph, [0.3, 0.7])
    instances = [
        (u, 2, 2, ToeplitzFamily(2, 2, 1), wb_a, we_a),
        (skew, 2, 2, ToeplitzFamily(2, 2, 1), wb_b, we_b),
        (u, 4, 2, ToeplitzFamily(2, 3, 2), wb_a, we_a),
        (u, 2, 4, ToeplitzFamily(2, 3, 1), wb_b, we_b),
        (skew, 2, 4, ToeplitzFamily(2, 3, 1), wb_a, we_a),
    ]
    ok = True
    for p, m, l, fam, wb, we in instances:
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        ok &= res.avg_eps <= random_coding_error_bound(wb, p, m * l) + 1e-12
        ok &= res.avg_d1 <= random_coding_d1_bound(we, p, l) + 1e-12
        chosen = markov_select(res)
        ok &= chosen.eps <= 2.0 * res.avg_eps + 1e-12
        ok &= chosen.d1 <= 2.0 * res.avg_d1 + 1e-12
    verdict(
        "09 wiretap random coding",
        ok,
        f"{len(instances)} exhaustive ensembles (binary inputs, ML <= 8)",
    )


def _random_additive(rng) -> Channel:
    size = int(rng.integers(2, 5))
    mod = Module(size, 1) if size in (2, 3, 4) else Module(2, 1)
    raw = rng.random(mod.size) + 0.02
    noise = SubDist(Alphabet(mod.labels()), raw / raw.sum())
    return Channel.additive(noise, mod)


def _random_general_additive(rng) -> Channel:
    nx = int(rng.integers(2, 4))
    nz = int(rng.integers(2, 4))
    mod = Module(nx, 1)
    raw = rng.random((nx, nz)) + 0.02
    joint = JointDist(
        Alphabet(mod.labels()),
        Alphabet(tuple(f"z{i}" for i in range(nz))),
        raw / raw.sum(),
    )
    return Channel.general_additive(joint, mod)


def test_criterion_10a_additive_identities():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(100):
        w = _random_additive(rng)
        t = float(rng.uniform(0.0, 0.49))
        rep = additive_identities(w, t)
        ok &= rep.max_discrepancy <= 1e-10
    verdict("10a additive three-way identity", ok, "100 random additive channels")


def test_criterion_10b_general_additive_three_way_as_stated():
    """Faithful check of the stated three-way identity for general-additive
    channels.  EXPECTED TO FAIL: the psi expression equals the conditional
    closed form exactly, but the phi expression is strictly below both
    whenever the conditional collision sums vary with the side symbol (the
    reverse-Holder step is strict).  The exact pairings that do hold are
    asserted green in tests/test_wiretap.py; analysis in the project notes.
    """
    rng = np.random.default_rng(2020)
    worst = 0.0
    ok = True
    for _ in range(100):
        w = _random_general_additive(rng)
        t = float(rng.uniform(0.0, 0.49))
        rep = additive_identities(w, t)
        worst = max(worst, rep.max_discrepancy)
        ok &= rep.max_discrepancy <= 1e-10
    verdict(
        "10b general-additive three-way identity (as stated)",
        ok,
        f"max three-way discrepancy {worst:.2e}; the psi<->closed and "
        "phi<->escort pairings hold exactly, the stated psi=phi does not",
    )


def test_criterion_10c_reverse_holder_ordering():
    rng = np.random.default_rng(3030)
    ok = True
    for _ in range(100):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        mat = rng.random((nx, ny)) + 0.02
        mat /= mat.sum(axis=1, keepdims=True)
        w = Channel(range_alphabet(nx), Alphabet(tuple(f"y{i}" for i in range(ny))), mat)
        raw = rng.random(nx) + 0.02
        p = SubDist(w.input_alphabet, raw / raw.sum())
        t = float(rng.uniform(0.0, 0.5))
        lhs = 1.0 if t == 0.0 else math.exp((1 - t) * psi_channel(w, p, t / (1 - t)))
        rhs = math.exp(phi_channel(w, p, t))
        ok &= lhs >= rhs - 1e-12
    verdict("10c reverse-Holder ordering", ok, "100 random (W, p, t) triples")


def test_criterion_11_distillation():
    alph = Alphabet(("0", "1"))
    triples = [
        CorrelationTriple(
            JointDist(alph, alph, [[0.5, 0.0], [0.0, 0.5]]),
            JointDist.independent(SubDist(alph, [0.5, 0.5]), SubDist(alph, [0.6, 0.4])),
            Module(2, 1),
        ),
        CorrelationTriple(
            JointDist(alph, alph, [[0.45, 0.05], [0.05, 0.45]]),
            JointDist(alph, alph, [[0.375, 0.125], [0.125, 0.375]]),
            Module(2, 1),
        ),
        CorrelationTriple(
            JointDist(alph, alph, [[0.27, 0.03], [0.07, 0.63]]),
            JointDist(alph, alph, [[0.24, 0.06], [0.28, 0.42]]),
            Module(2, 1),
        ),
    ]
    ok = True
    for tri in triples:
        for n in (1, 2):
            t_n = tri if n == 1 else tri.iid_extend(2)
            rep = run_distillation(t_n, 2, 2)
            # ensemble averages meet the displays (and their tighter
            # ensemble-side versions)
            ok &= rep.eps <= rep.bound_eps_ensemble + 1e-12
            ok &= rep.eps <= 2.0 * distillation_error_bound(t_n.pab, 2, 2) + 1e-12
            ok &= rep.d1 <= rep.bound_d1_ensemble + 1e-12
            ok &= rep.d1 <= 2.0 * distillation_d1_bound(t_n.pae, 2) + 1e-12
            ok &= abs(rep.rate - (rep.h_a_given_e - rep.h_a_given_b)) <= 1e-9
        # conditional-entropy additivity backing the n-fold displays
        t2 = tri.iid_extend(2)
        for s in (0.3, 1.0):
            ok &= abs(cond_renyi_tilde(t2.pae, s) - 2 * cond_renyi_tilde(tri.pae, s)) <= 1e-9
    verdict("11 distillation", ok, "3 fixture triples at n = 1, 2")


def test_criterion_12_cli_determinism(tmp_path):
    import json as _json

    from click.testing import CliRunner

    from secexp.cli import cli

    runner = CliRunner()
    dist = tmp_path / "p.json"
    dist.write_text(
        _json.dumps({"alphabet": ["a", "b", "c"], "mass": [0.5, 0.25, 0.25]})
    )
    ok = True
    for args in (
        ["figure", "--id", "4", "--points", "25"],
        ["simulate", "pa", "--dist", str(dist), "--M", "2", "--mode", "mc",
         "--samples", "64", "--seed", "11"],
        ["exponent", "--dist", str(dist), "--R", "0.3", "--form", "cramer"],
    ):
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        ok &= first.exit_code == 0 and second.exit_code == 0
        ok &= first.output == second.output
    verdict("12 CLI determinism", ok, "3 commands, byte-identical reruns")
