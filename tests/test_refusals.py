"""Every refusal of an input the library cannot compute.

Orders and rates are checked by one function, `dists.order_array`, whose
refusal reads "{name} must be finite and lie in {interval}" (or "... and >=
0" for a rate); alphabet pairings by one, `dists.require_same_alphabet`,
which raises `AlphabetMismatchError`; sizes by `dists.require_size` ("{name}
must be >= 1"); and the probability requirement by
`dists.require_probability` ("{what} requires a probability distribution").
The CLI re-checks none of them: a library refusal leaves it with exit status
2.  The table at the end reaches each remaining refusal once through the
public API.
"""

import ast
import math
import re
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from secexp.cli import cli
from secexp.distill import CorrelationTriple, distillation_d1_bound, distillation_error_bound
from secexp.dists import (
    Alphabet,
    AlphabetMismatchError,
    JointDist,
    SubDist,
    TypeClass,
    enumerate_types,
    kl_divergence,
    kron_power,
    l1_distance,
    l2_distance,
    range_alphabet,
    renyi_tilde,
    renyi_tilde_derivative,
    require_same_alphabet,
    smooth_truncate,
    tilt,
)
from secexp.exponents import (
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
    order2_d1_bound,
    phi_cond,
    universal_exponent,
    universal_hash_d1_bound,
)
from secexp.figures import figure_sweep
from secexp.gf import Module
from secexp.hashing import ExplicitFamily, FullyRandomFamily, ToeplitzFamily
from secexp.intrinsic import (
    build_specialized,
    check_specialized_identity,
    heavy_mass_lower_bound,
    specialized_exponent,
)
from secexp.privacy import (
    best_subset_lower_bound,
    d1_hashed,
    expected_collision_mass,
    expected_d1,
    expected_d1_conditional,
    pushforward,
    subset_lower_bound,
)
from secexp.wiretap import (
    Channel,
    LinearCode,
    WiretapCode,
    additive_identities,
    code_from_codebook,
    coset_code,
    coset_d1_bound,
    coset_d1_bound_closed,
    coset_ensemble_d1,
    e_phi,
    e_psi,
    error_prob,
    eve_distinguishability,
    phi_channel,
    psi_channel,
    psi_pinsker_exponent,
    random_coding_d1_bound,
    random_coding_error_bound,
    random_wiretap_code,
    side_information_d1_bound,
    uniform_codeword_joint,
    uniform_on_subset,
    wiretap_ensemble_exact,
    wiretap_ensemble_mc,
)

_SRC = Path(__file__).resolve().parents[1] / "src" / "secexp"
_INPUTS = Path(__file__).parent / "golden" / "inputs"

BERN = SubDist.bernoulli(0.2)
HALF = SubDist(range_alphabet(2), [0.25, 0.25])  # a sub-distribution
JOINT = JointDist(range_alphabet(2), range_alphabet(2), [[0.4, 0.1], [0.2, 0.3]])
BSC = Channel.additive(SubDist(range_alphabet(2), [0.9, 0.1]), Module(2, 1))
UNIFORM2 = SubDist.uniform(BSC.input_alphabet)
GENERIC = Channel(range_alphabet(2), range_alphabet(2), [[0.7, 0.3], [0.2, 0.8]])
OTHER_INPUTS = Channel(Alphabet(("a", "b")), range_alphabet(2), [[0.7, 0.3], [0.2, 0.8]])
C1 = LinearCode(Module(2, 2), [(1, 0), (0, 1)])  # F_2^2, four codewords
BSC4 = BSC.iid_extend(2)  # C1's four inputs
BSC8 = Channel.additive(SubDist(range_alphabet(2), [0.9, 0.1]), Module(2, 1)).iid_extend(3)
HALF2 = SubDist(BSC.input_alphabet, [0.25, 0.25])  # a sub-distribution of codewords


def _uniform_channel(inputs: int, outputs: int = 2) -> Channel:
    return Channel(range_alphabet(inputs), range_alphabet(outputs), np.full((inputs, outputs), 1 / outputs))


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------

# (function, call at an order, an order just outside its domain, its interval)
ORDER_FUNCTIONS = [
    ("renyi_tilde", lambda s: renyi_tilde(BERN, s), -1.0, "s", "(-1, inf)"),
    ("renyi_tilde_derivative", lambda s: renyi_tilde_derivative(BERN, s), -1.5, "s", "(-1, inf)"),
    ("tilt", lambda s: tilt(BERN, s).mass, -1.0, "s", "(-1, inf)"),
    ("hash_d1_bound_at", lambda s: hash_d1_bound_at(BERN, 4, s), 1.5, "s", "[0, 1]"),
    ("phi_cond", lambda t: phi_cond(JOINT, t), 1.0, "t", "(-inf, 1)"),
    ("cond_renyi_tilde", lambda s: cond_renyi_tilde(JOINT, s), -1.0, "s", "(-1, inf)"),
    ("conditional_hash_d1_bound_at", lambda t: conditional_hash_d1_bound_at(JOINT, 4, t), 0.6,
     "t", "[0, 0.5]"),
    ("phi_channel", lambda t: phi_channel(BSC, UNIFORM2, t), 1.0, "t", "(-inf, 1)"),
    ("psi_channel", lambda t: psi_channel(BSC, UNIFORM2, t), -1.0, "t", "(-1, inf)"),
    ("additive_identities", lambda t: additive_identities(BSC, t), 1.0, "t", "[0, 1)"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "outside"])
@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("call, outside, name, interval", [c[1:] for c in ORDER_FUNCTIONS],
                         ids=[c[0] for c in ORDER_FUNCTIONS])
def test_each_order_refusal_is_the_one_check(call, outside, name, interval, bad, shape):
    order = outside if bad == "outside" else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError) as err:
            call(order if shape == "scalar" else np.array([0.25, order]))
    assert str(err.value) == f"{name} must be finite and lie in {interval}"
    assert traceback.extract_tb(err.tb)[-1].name == "order_array"


@pytest.mark.parametrize("call", [c[1] for c in ORDER_FUNCTIONS], ids=[c[0] for c in ORDER_FUNCTIONS])
def test_orders_inside_the_domain_are_computed(call):
    assert np.all(np.isfinite(np.asarray(call(0.25), dtype=float)))


# ---------------------------------------------------------------------------
# Alphabets
# ---------------------------------------------------------------------------

ALPHABET_PAIRINGS = [
    ("l1_distance", lambda: l1_distance(BERN, SubDist.uniform(Alphabet(("a", "b"))))),
    ("l2_distance", lambda: l2_distance(BERN, SubDist.uniform(Alphabet(("a", "b"))))),
    ("kl_divergence", lambda: kl_divergence(BERN, SubDist.uniform(range_alphabet(3)))),
    ("Channel.output_dist", lambda: OTHER_INPUTS.output_dist(UNIFORM2)),
    ("phi_channel", lambda: phi_channel(OTHER_INPUTS, UNIFORM2, 0.25)),
    ("psi_channel", lambda: psi_channel(OTHER_INPUTS, UNIFORM2, 0.25)),
    ("expected_d1", lambda: expected_d1(BERN, FullyRandomFamily(range_alphabet(2), 2))),
    ("expected_collision_mass", lambda: expected_collision_mass(BERN, ToeplitzFamily(2, 2, 1))),
    ("expected_d1_conditional",
     lambda: expected_d1_conditional(JOINT, FullyRandomFamily(Alphabet(("a", "b")), 2))),
    ("wiretap_ensemble_exact",
     lambda: wiretap_ensemble_exact(UNIFORM2, 2, 2, ToeplitzFamily(2, 2, 1), BSC, OTHER_INPUTS)),
    ("wiretap_ensemble_mc",
     lambda: wiretap_ensemble_mc(UNIFORM2, 2, 2, ToeplitzFamily(2, 2, 1), OTHER_INPUTS, BSC)),
    ("random_wiretap_code",
     lambda: random_wiretap_code(UNIFORM2, 2, 2, ToeplitzFamily(2, 2, 1), OTHER_INPUTS,
                                 np.random.default_rng(0))),
]


@pytest.mark.parametrize("refuse", [c[1] for c in ALPHABET_PAIRINGS], ids=[c[0] for c in ALPHABET_PAIRINGS])
def test_each_alphabet_pairing_refuses_by_the_one_check(refuse):
    with pytest.raises(AlphabetMismatchError) as err:
        refuse()
    assert traceback.extract_tb(err.tb)[-1].name == "require_same_alphabet"


def test_a_mismatch_message_stays_short():
    big = range_alphabet(2**20)
    other = Alphabet(big.symbols[:-1] + ("x" * 100,))
    for a, b, detail in [
        (big, other, "symbol 1048575 is '1048576' vs 'xxxxxxxxxxxxxxxxxxx"),
        (big, range_alphabet(2**20 - 1), "1048576 vs 1048575 symbols"),
    ]:
        with pytest.raises(AlphabetMismatchError) as err:
            require_same_alphabet(a, b, "distribution")
        assert str(err.value) == f"distribution alphabets differ: {detail}"
        assert len(str(err.value)) < 200


def _mismatch_sites(tree: ast.Module):
    """(function, line) of every use of AlphabetMismatchError inside a function
    other than `require_same_alphabet`."""
    return [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name != "require_same_alphabet"
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "AlphabetMismatchError"
    ]


def test_alphabet_mismatches_are_raised_only_by_the_one_check():
    stray = [(path.name, *site) for path in sorted(_SRC.glob("*.py"))
             for site in _mismatch_sites(ast.parse(path.read_text(), str(path)))]
    assert stray == []


def test_the_scan_sees_a_stray_mismatch():
    tree = ast.parse(
        "def require_same_alphabet(a, b):\n    raise AlphabetMismatchError('x')\n"
        "class C:\n    def pair(self, a, b):\n        if a != b:\n"
        "            raise AlphabetMismatchError('y')\n"
    )
    assert _mismatch_sites(tree) == [("pair", 6)]


# ---------------------------------------------------------------------------
# Sizes, rates and the probability requirement
# ---------------------------------------------------------------------------

# (function, call at a size, the size's name)
SIZE_FUNCTIONS = [
    ("range_alphabet", lambda m: range_alphabet(m), "alphabet size"),
    ("kron_power", lambda n: kron_power(BERN.mass, n, "cells"), "n"),
    ("enumerate_types", lambda n: enumerate_types(BERN.alphabet, n), "n"),
    ("Channel.iid_extend", lambda n: BSC.iid_extend(n), "n"),
    ("Module", lambda n: Module(2, n), "module length"),
    ("FullyRandomFamily", lambda m: FullyRandomFamily(BERN.alphabet, m), "output size"),
    ("hash_d1_bound_at", lambda m: hash_d1_bound_at(BERN, m, 0.5), "output size"),
    ("universal_hash_d1_bound", lambda m: universal_hash_d1_bound(BERN, m), "output size"),
    ("order2_d1_bound", lambda m: order2_d1_bound(BERN, m), "output size"),
    ("conditional_hash_d1_bound_at", lambda m: conditional_hash_d1_bound_at(JOINT, m, 0.25), "output size"),
    ("subset_lower_bound", lambda m: subset_lower_bound(BERN, m, []), "output size"),
    ("best_subset_lower_bound", lambda m: best_subset_lower_bound(BERN, m), "output size"),
    ("heavy_mass_lower_bound", lambda m: heavy_mass_lower_bound(BERN, m), "M"),
    ("build_specialized n", lambda n: build_specialized(BERN, n, 4), "n"),
    ("build_specialized M", lambda m: build_specialized(BERN, 2, m), "M"),
    ("random_coding_error_bound", lambda ml: random_coding_error_bound(BSC, UNIFORM2, ml), "ML"),
    ("random_coding_d1_bound", lambda l: random_coding_d1_bound(BSC, UNIFORM2, l), "L"),
    ("side_information_d1_bound", lambda l: side_information_d1_bound(JOINT, l), "L"),
    ("coset_d1_bound", lambda l: coset_d1_bound(BSC4, C1, l), "L"),
    ("coset_d1_bound_closed", lambda l: coset_d1_bound_closed(BSC, l), "L"),
    ("distillation_d1_bound", lambda l: distillation_d1_bound(JOINT, l), "L"),
    ("distillation_error_bound M", lambda m: distillation_error_bound(JOINT, m, 2), "M"),
    ("distillation_error_bound L", lambda l: distillation_error_bound(JOINT, 2, l), "L"),
]


def _refused_by(check: str, call, *args) -> str:
    """The message of the ValueError `call(*args)` raises from `check`'s
    frame, before any arithmetic warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call(*args)
    assert traceback.extract_tb(err.tb)[-1].name == check
    return str(err.value)


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("call, name", [c[1:] for c in SIZE_FUNCTIONS], ids=[c[0] for c in SIZE_FUNCTIONS])
def test_each_size_refusal_is_the_one_check(call, name, size):
    assert _refused_by("require_size", call, size) == f"{name} must be >= 1"


@pytest.mark.parametrize("call", [c[1] for c in SIZE_FUNCTIONS], ids=[c[0] for c in SIZE_FUNCTIONS])
def test_size_one_is_computed(call):
    call(1)


# (function, call at a rate, whether it takes an array of rates)
RATE_FUNCTIONS = [
    ("universal_exponent", lambda r: universal_exponent(BERN, r), True),
    ("cramer_exponent", lambda r: cramer_exponent(BERN, r), False),
    ("cramer_exponent_restricted", lambda r: cramer_exponent_restricted(BERN, r), True),
    ("divergence_exponent", lambda r: divergence_exponent(BERN, r), False),
    ("holenstein_renner_exponents", lambda r: holenstein_renner_exponents(BERN, r), False),
    ("conditional_exponent_phi", lambda r: conditional_exponent_phi(JOINT, r), False),
    ("conditional_exponent_pinsker", lambda r: conditional_exponent_pinsker(JOINT, r), False),
    ("conditional_exponent_no_smoothing", lambda r: conditional_exponent_no_smoothing(JOINT, r), False),
    ("e_phi", lambda r: e_phi(r, BSC, UNIFORM2), True),
    ("e_psi", lambda r: e_psi(r, BSC, UNIFORM2), True),
    ("psi_pinsker_exponent", lambda r: psi_pinsker_exponent(r, BSC, UNIFORM2), True),
]
_RATE_CASES = [
    pytest.param(call, rate if shape == "scalar" else np.array([0.25, rate]), id=f"{name}-{shape}-{rate}")
    for name, call, arrays in RATE_FUNCTIONS
    for shape in (("scalar", "array") if arrays else ("scalar",))
    for rate in (math.nan, math.inf, -math.inf, -1.0)
]


@pytest.mark.parametrize("call, rate", _RATE_CASES)
def test_each_rate_refusal_is_the_one_check(call, rate):
    assert _refused_by("order_array", call, rate) == "rate must be finite and >= 0"


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_smooth_truncate_refuses_a_nonfinite_threshold(r):
    assert _refused_by("order_array", smooth_truncate, BERN, r) == "r must be finite and lie in (-inf, inf)"


# (function, call on a sub-distribution, what needs the distribution)
PROBABILITY_FUNCTIONS = [
    ("universal_exponent", lambda: universal_exponent(HALF, 0.1), "exponent"),
    ("divergence_exponent", lambda: divergence_exponent(HALF, 0.1), "exponent"),
    ("cramer_exponent", lambda: cramer_exponent(HALF, 0.1), "exponent"),
    ("cramer_exponent_restricted", lambda: cramer_exponent_restricted(HALF, 0.1), "exponent"),
    ("specialized_exponent", lambda: specialized_exponent(HALF, 0.1), "exponent"),
    ("holenstein_renner_exponents", lambda: holenstein_renner_exponents(HALF, 0.1), "exponent"),
    ("critical_rate", lambda: critical_rate(HALF), "critical rate"),
    ("kl_divergence q", lambda: kl_divergence(HALF, SubDist.uniform(HALF.alphabet)), "divergence"),
    ("kl_divergence p", lambda: kl_divergence(SubDist.uniform(HALF.alphabet), HALF), "divergence"),
    ("heavy_mass_lower_bound", lambda: heavy_mass_lower_bound(HALF, 2), "heavy-mass floor"),
    ("build_specialized", lambda: build_specialized(HALF, 2, 2), "specialized map"),
    ("wiretap_ensemble_exact", lambda: wiretap_ensemble_exact(HALF2, 2, 2, ToeplitzFamily(2, 2, 1), BSC, BSC),
     "random coding"),
    ("wiretap_ensemble_mc", lambda: wiretap_ensemble_mc(HALF2, 2, 2, ToeplitzFamily(2, 2, 1), BSC, BSC),
     "random coding"),
    ("random_wiretap_code",
     lambda: random_wiretap_code(HALF2, 2, 2, ToeplitzFamily(2, 2, 1), BSC, np.random.default_rng(0)),
     "random coding"),
]


@pytest.mark.parametrize("call, what", [c[1:] for c in PROBABILITY_FUNCTIONS],
                         ids=[c[0] for c in PROBABILITY_FUNCTIONS])
def test_each_probability_refusal_is_the_one_check(call, what):
    assert _refused_by("require_probability", call) == f"{what} requires a probability distribution"


# A message that reads as a size, rate or probability refusal.
_ARGUMENT_REFUSAL = re.compile(r">= 1|at least 1\b|probability distribution|rate must")
_ONE_CHECKS = {"order_array", "require_size", "require_probability"}


def _argument_checks(tree: ast.Module):
    """(function, source) of every raise whose message reads as a size, rate
    or probability refusal, and of every probability test, inside a function
    other than the three checks."""
    sites = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name in _ONE_CHECKS:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = " ".join(c.value for c in ast.walk(node.exc)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if _ARGUMENT_REFUSAL.search(text):
                    sites.add((fn.name, ast.unparse(node)))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_probability":
                sites.add((fn.name, ast.unparse(node)))
    return sites


# Two branches that pick optional outputs.
_CLI_SITES = {
    ("cli.py", "entropy", "p.is_probability()"),
    ("cli.py", "simulate_pa", "p.is_probability()"),
}


def test_sizes_rates_and_probabilities_are_refused_only_by_the_one_checks():
    sites = {(path.name, *site) for path in sorted(_SRC.glob("*.py"))
             for site in _argument_checks(ast.parse(path.read_text(), str(path)))}
    assert sites == _CLI_SITES


def test_the_scan_sees_a_stray_argument_check():
    tree = ast.parse(
        "def require_size(n, name):\n    if n < 1:\n        raise ValueError(f'{name} must be >= 1')\n"
        "def bound(p, m, r):\n    if m < 1:\n        raise ValueError(f'M={m}: M must be >= 1')\n"
        "    if r < 0:\n        raise ValueError('rate must be >= 0')\n"
        "    return 0.0 if p.is_probability() else 1.0\n"
    )
    assert _argument_checks(tree) == {
        ("bound", "raise ValueError(f'M={m}: M must be >= 1')"),
        ("bound", "raise ValueError('rate must be >= 0')"),
        ("bound", "p.is_probability()"),
    }


# ---------------------------------------------------------------------------
# Integer arguments
# ---------------------------------------------------------------------------

U4 = SubDist.uniform(range_alphabet(4))

# (site, refused call, message): maps, seeds, codewords, indices and counts
# that are not integers in range, or not of the expected shape
INDEX_CASES = [
    ("pushforward fractions", lambda: pushforward(BERN, [1.7, 2.2], 2), "map must be integers in 1..2"),
    ("d1_hashed strings", lambda: d1_hashed(BERN, ["1", "2"], 2), "map must be integers in 1..2"),
    ("as_map fractions", lambda: ToeplitzFamily(2, 3, 1).as_map((0.5, 0.9)),
     "seed digits must be integers in 0..1"),
    ("as_map nan", lambda: ToeplitzFamily(2, 3, 1).as_map((math.nan, 0)),
     "seed digits must be integers in 0..1"),
    ("ExplicitFamily ragged", lambda: ExplicitFamily(range_alphabet(2), 2, [[1, 2], [1]]),
     "maps must have shape (*, 2)"),
    ("WiretapCode 2-D decoder", lambda: WiretapCode(2, np.eye(2), [[1, 2], [2, 1]]),
     "decoder cells must have shape (*,)"),
    ("subset_lower_bound fraction", lambda: subset_lower_bound(U4, 4, [0.7]),
     "subset indices must be integers in 0..3"),
    ("subset_lower_bound bool", lambda: subset_lower_bound(U4, 4, [True]),
     "subset indices must be integers in 0..3"),
    ("LinearCode fraction", lambda: LinearCode(Module(2, 3), [(1.5, 0, 0)]),
     "generator digits must be integers in 0..1"),
    ("code_from_codebook map 0", lambda: code_from_codebook([0, 1], [0, 2], 2, 1, BSC),
     "map must be integers in 1..2"),
    ("coset_code map 0", lambda: coset_code(C1, [0, 1, 0, 1], BSC4), "map must be integers in 1..4"),
    ("uniform_on_subset fraction", lambda: uniform_on_subset(range_alphabet(3), [0.5]),
     "subset indices must be integers in 0..2"),
    ("uniform_codeword_joint fraction", lambda: uniform_codeword_joint([0.5, 1], BSC),
     "codewords must be integers in 0..1"),
    ("TypeClass fractions", lambda: TypeClass(range_alphabet(2), (1.5, 0.5)),
     f"counts must be integers in 0..{2**63 - 1}"),
]


@pytest.mark.parametrize("refuse, shown", [c[1:] for c in INDEX_CASES], ids=[c[0] for c in INDEX_CASES])
def test_each_integer_refusal_is_the_one_check(refuse, shown):
    assert _refused_by("index_array", refuse) == shown


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float64])
def test_integer_inputs_of_every_dtype_give_the_same_bits(dtype):
    p = SubDist(range_alphabet(4), [0.1, 0.2, 0.3, 0.4])
    f, seed, codebook = [3, 1, 3, 2], [1, 0, 1], [1, 0, 0, 1]
    fam = ToeplitzFamily(2, 4, 2)
    cast = lambda v: np.array(v, dtype=dtype)
    assert pushforward(p, cast(f), 3).mass.tobytes() == pushforward(p, f, 3).mass.tobytes()
    assert fam.as_map(cast(seed)).tobytes() == fam.as_map(seed).tobytes()
    got, want = (code_from_codebook(cb, m, 2, 2, BSC) for cb, m in
                 ((cast(codebook), cast([1, 2, 2, 1])), (codebook, [1, 2, 2, 1])))
    assert (got.encoders.tobytes(), got.decoder.tobytes()) == (want.encoders.tobytes(), want.decoder.tobytes())


def test_an_empty_input_has_no_rows():
    # the zero code: no generators, one codeword
    assert LinearCode(Module(2, 2), []).codewords == (0,)


# Functions that may convert a parameter to integers themselves: the block
# readers, whose seeds the family built (`as_map` checks a caller's), the
# digits of a module symbol, the CLI's figure choice and a numpy integer
# written out as JSON.
_INTEGER_SITES = {
    ("hashing.py", "maps_of", "np.asarray(seeds, dtype=np.int64)"),
    ("hashing.py", "matrices", "np.asarray(seeds, dtype=np.int64)"),
    ("gf.py", "index", "int(d)"),
    ("cli.py", "figure", "int(figure_id)"),
    ("cli.py", "_jsonify", "int(obj)"),
}
_INTEGER_DTYPE = re.compile(r"\b(u?int\d*|intp)\b")
_ITERATORS = {"enumerate", "zip", "sorted", "reversed", "set", "list", "tuple"}


def _integer_conversions(tree: ast.Module):
    """(function, source) of every int() of a parameter or of an item
    iterated from one, and of every np.asarray/np.array of a parameter with
    an integer dtype."""
    sites = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        named = {a.arg for a in every} - {"self", "cls"}
        loops = [(n.target, n.iter) for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
        grown = True
        while grown:  # an item of an item of a parameter is one too
            size = len(named)
            for target, it in loops:
                sources = it.args if isinstance(it, ast.Call) and getattr(it.func, "id", None) in _ITERATORS else [it]
                if any(isinstance(a, ast.Name) and a.id in named for a in sources):
                    named |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            grown = len(named) > size
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in named):
                continue
            dtype = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
            if getattr(node.func, "id", None) == "int" or (
                    getattr(node.func, "attr", None) in ("asarray", "array")
                    and any(_INTEGER_DTYPE.search(ast.unparse(d)) for d in dtype)):
                sites.add((fn.name, ast.unparse(node)))
    return sites


def test_integer_arguments_are_converted_only_by_the_one_check():
    sites = {(path.name, *site) for path in sorted(_SRC.glob("*.py")) if path.name != "dists.py"
             for site in _integer_conversions(ast.parse(path.read_text(), str(path)))}
    assert sites == _INTEGER_SITES


def test_the_scan_sees_a_stray_integer_conversion():
    tree = ast.parse(
        "def code(codebook, maps, gens, n, labels, seed):\n"
        "    cb = np.asarray(codebook, dtype=np.int64)\n"
        "    rows = [int(m) for m in maps]\n"
        "    digits = tuple(tuple(int(d) for d in g) for g in gens)\n"
        "    size = np.array(n, np.int32)\n"
        "    for i, x in enumerate(labels):\n"
        "        int(x)\n"
        "    return int(np.argmax(seed)), np.asarray(seed, dtype=float), int(len(maps))\n"
        "class F:\n    def maps_of(self, seeds):\n        return np.asarray(seeds, dtype=np.int64)\n"
    )
    assert _integer_conversions(tree) == {
        ("code", "np.asarray(codebook, dtype=np.int64)"),
        ("code", "int(m)"),
        ("code", "int(d)"),
        ("code", "np.array(n, np.int32)"),
        ("code", "int(x)"),
        ("maps_of", "np.asarray(seeds, dtype=np.int64)"),
    }


# ---------------------------------------------------------------------------
# The CLI maps library refusals to exit 2
# ---------------------------------------------------------------------------

_BERN = str(_INPUTS / "bern.json")
_FORMS = ["universal", "divergence", "cramer", "hr", "cond"]


def _rate_args(form: str, rate: str) -> list[str]:
    source = ["--joint", str(_INPUTS / "joint.json")] if form == "cond" else ["--dist", _BERN]
    return ["exponent", *source, "--R", rate, "--form", form]


@pytest.mark.parametrize(
    "args, shown",
    [(["entropy", "--dist", _BERN, "--s", s], "s must be finite and lie in (-1, inf)")
     for s in ("nan", "inf", "-inf", "-1")]
    + [(_rate_args(form, rate), "rate must be finite and >= 0") for form in _FORMS for rate in ("nan", "inf")],
)
def test_library_refusals_exit_2(args, shown):
    res = CliRunner().invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert f"invalid input: {shown}" in res.output


def test_simulate_wiretap_refuses_channels_on_different_inputs(tmp_path):
    other = tmp_path / "other.json"
    other.write_text('{"input_alphabet": ["a", "b"], "output_alphabet": ["u", "v"],'
                     ' "matrix": [[0.6, 0.4], [0.35, 0.65]]}')
    args = ["simulate", "wiretap", "--wb", str(_INPUTS / "wb.json"), "--we", str(other), "--M", "2", "--L", "2"]
    res = CliRunner().invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert "invalid input: input distribution and channel input alphabets differ: symbol 0 is '0' vs 'a'" in res.output


# ---------------------------------------------------------------------------
# Every other refusal, once
# ---------------------------------------------------------------------------

# (raising site, refused call, message fragment)
CASES = [
    ("dists.range_alphabet", lambda: range_alphabet(0), "alphabet size must be >= 1"),
    ("dists.SubDist.bernoulli", lambda: SubDist.bernoulli(1.5), "p must be in [0, 1]"),
    ("dists.kl_divergence", lambda: kl_divergence(HALF, HALF), "divergence requires a probability distribution"),
    ("dists.enumerate_types", lambda: enumerate_types(range_alphabet(2), 0), "n must be >= 1"),
    ("exponents.universal_hash_d1_bound", lambda: universal_hash_d1_bound(BERN, 0),
     "output size must be >= 1"),
    ("exponents.universal_exponent", lambda: universal_exponent(HALF, 0.1),
     "exponent requires a probability distribution"),
    ("exponents.critical_rate", lambda: critical_rate(HALF), "critical rate requires a probability"),
    ("exponents.divergence_exponent", lambda: divergence_exponent(BERN, 1.0),
     "rate must be finite and lie in [0, 0.693147]"),
    ("exponents.additive_pair_joint",
     lambda: additive_pair_joint(BERN, SubDist.uniform(range_alphabet(3))), "marginals must have equal sizes"),
    ("hashing.FullyRandomFamily", lambda: FullyRandomFamily(range_alphabet(2), 0),
     "output size must be >= 1"),
    ("hashing.ExplicitFamily length", lambda: ExplicitFamily(range_alphabet(2), 2, [[1, 2, 1]]),
     "maps must have shape (*, 2)"),
    ("hashing.ExplicitFamily outputs", lambda: ExplicitFamily(range_alphabet(2), 2, [[1, 3]]),
     "maps must be integers in 1..2"),
    ("privacy._preimage_sums", lambda: pushforward(BERN, [1], 2), "map must have shape (2,)"),
    ("privacy._ensemble", lambda: expected_d1(SubDist.uniform(ToeplitzFamily(2, 2, 1).input_alphabet),
                                              ToeplitzFamily(2, 2, 1), mode="x"), "unknown mode 'x'"),
    ("privacy._omega_indices range", lambda: subset_lower_bound(BERN, 4, [5]), "subset indices must be integers in 0..1"),
    ("privacy._omega_indices repeats", lambda: subset_lower_bound(BERN, 4, [0, 0]),
     "subset contains repeated symbols"),
    ("intrinsic.heavy_mass_lower_bound", lambda: heavy_mass_lower_bound(BERN, 0),
     "M must be >= 1"),
    ("intrinsic.build_specialized", lambda: build_specialized(BERN, 0, 2),
     "n must be >= 1"),
    ("intrinsic.specialized_exponent", lambda: specialized_exponent(HALF, 0.1),
     "requires a probability distribution"),
    ("intrinsic.check_specialized_identity",
     lambda: check_specialized_identity(SubDist.uniform(range_alphabet(4)), 0.5), "only for 2-3 symbols"),
    ("distill.CorrelationTriple", lambda: CorrelationTriple(JOINT, JOINT, Module(3, 1)),
     "A-alphabet must match the module size"),
    ("figures.figure_sweep", lambda: figure_sweep(5), "unknown figure id 5"),
    ("wiretap.WiretapCode rows", lambda: WiretapCode(1, [[0.5, 0.4]], [1, 1]),
     "encoder rows must sum to 1"),
    ("wiretap.WiretapCode decoder", lambda: WiretapCode(1, [[1.0]], [2]), "decoder cells must be integers in 0..1"),
    ("wiretap.error_prob encoders", lambda: error_prob(WiretapCode(1, [[0.5, 0.5, 0.0]], [1, 1]), BSC),
     "encoder support must match the channel input"),
    ("wiretap.error_prob decoder", lambda: error_prob(WiretapCode(1, [[0.5, 0.5]], [1, 1, 1]), BSC),
     "decoder must cover the channel output"),
    ("wiretap.eve_distinguishability",
     lambda: eve_distinguishability(WiretapCode(1, [[0.5, 0.5, 0.0]], [1, 1]), BSC),
     "encoder support must match the channel input"),
    # one map: symbols 0 and 1 always collide, so not universal_2
    ("wiretap._require_conditions universal_2",
     lambda: wiretap_ensemble_exact(UNIFORM2, 2, 2, ExplicitFamily(range_alphabet(4), 2, [[1, 1, 2, 2]]),
                                    BSC, BSC), "hash family is not universal_2"),
    ("wiretap.code_from_codebook length", lambda: code_from_codebook([0], [1, 2], 2, 1, BSC),
     "codewords must have shape (2,)"),
    ("wiretap.code_from_codebook classes", lambda: code_from_codebook([0, 1], [1, 1], 2, 1, BSC),
     "map must split the codewords into equal classes"),
    ("wiretap.code_from_codebook -1", lambda: code_from_codebook([-1, 0], [1, 2], 2, 1, BSC),
     "codewords must be integers in 0..1"),
    ("wiretap.code_from_codebook |X|", lambda: code_from_codebook([2, 0], [1, 2], 2, 1, BSC),
     "codewords must be integers in 0..1"),
    ("wiretap.uniform_codeword_joint -1", lambda: uniform_codeword_joint([-1, 0], BSC),
     "codewords must be integers in 0..1"),
    ("wiretap.uniform_codeword_joint |X|", lambda: uniform_codeword_joint([0, 2], BSC),
     "codewords must be integers in 0..1"),
    ("wiretap.uniform_on_subset -1", lambda: uniform_on_subset(range_alphabet(3), [-1]),
     "subset indices must be integers in 0..2"),
    ("wiretap.uniform_on_subset |X|", lambda: uniform_on_subset(range_alphabet(3), [3]),
     "subset indices must be integers in 0..2"),
    ("wiretap.LinearCode length", lambda: LinearCode(Module(2, 2), [(1, 0, 0)]),
     "generator digits must have shape (*, 2)"),
    ("wiretap.LinearCode digit", lambda: LinearCode(Module(2, 2), [(2, 0)]), "generator digits must be integers in 0..1"),
    ("wiretap.coset_code 2 inputs", lambda: coset_code(C1, [1, 2, 1, 2], _uniform_channel(2)),
     "channel has 2 input symbols, C1's module 4"),
    ("wiretap.coset_code 8 inputs", lambda: coset_code(C1, [1, 2, 1, 2], BSC8),
     "channel has 8 input symbols, C1's module 4"),
    ("wiretap.coset_ensemble_d1 2 inputs", lambda: coset_ensemble_d1(C1, 1, _uniform_channel(2)),
     "channel has 2 input symbols, C1's module 4"),
    ("wiretap.coset_ensemble_d1 8 inputs", lambda: coset_ensemble_d1(C1, 1, BSC8),
     "channel has 8 input symbols, C1's module 4"),
    ("wiretap.coset_d1_bound 2 inputs", lambda: coset_d1_bound(_uniform_channel(2), C1, 2),
     "channel has 2 input symbols, C1's module 4"),
    ("wiretap.coset_d1_bound 8 inputs", lambda: coset_d1_bound(BSC8, C1, 2),
     "channel has 8 input symbols, C1's module 4"),
    ("wiretap.coset_d1_bound_closed", lambda: coset_d1_bound_closed(GENERIC, 2),
     "closed form needs an additive or general-additive tag"),
]


@pytest.mark.parametrize("refuse, shown", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_refusal_names_its_input(refuse, shown):
    with pytest.raises(ValueError) as err:
        refuse()
    assert shown in str(err.value)


# (raising site, arguments, message fragment)
CLI_CASES = [
    ("cli.exponent --dist", ["exponent", "--R", "0.1"], "--dist is required for this form"),
    ("cli._family_from_flags toeplitz", ["hash", "check", "--family", "toeplitz", "--q", "2"],
     "toeplitz family needs --q, --k, --m"),
    ("cli._family_from_flags --M", ["hash", "check", "--family", "fullrandom", "--size", "3"],
     "fully-random family needs --M"),
    ("cli._family_from_flags --size", ["hash", "check", "--family", "fullrandom", "--M", "2"],
     "fully-random family needs an input alphabet (--size)"),
    ("cli.simulate_pa relabel",
     ["simulate", "pa", "--dist", _BERN, "--family", "toeplitz", "--q", "2", "--k", "2", "--m", "1"],
     "family input size does not match the distribution"),
]


@pytest.mark.parametrize("args, shown", [c[1:] for c in CLI_CASES], ids=[c[0] for c in CLI_CASES])
def test_each_cli_refusal_exits_2(args, shown):
    res = CliRunner().invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert f"invalid input: {shown}" in res.output
