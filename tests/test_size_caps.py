"""Every size and work cap is refused one way.

`dists.require_work` is the one check behind every cap, with one message
form, "{units} {what} exceed cap {cap}"; `dists.capped_power` (its walk over
partial products) is the only other place a size error is built.  One case
per call site below reaches its cap through the public API, at the real cap
values.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from secexp import hashing
from secexp.dists import JointDist, SizeLimitError, SubDist, enumerate_types, range_alphabet
from secexp.exponents import universal_exponent
from secexp.figures import figure_sweep
from secexp.gf import Module
from secexp.hashing import (
    ExplicitFamily,
    FullyRandomFamily,
    ToeplitzFamily,
    check_strongly_universal2,
    check_universal2,
)
from secexp.intrinsic import build_specialized
from secexp.privacy import expected_d1, expected_d1_conditional
from secexp.wiretap import Channel, wiretap_ensemble

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "secexp"


def _channel(inputs: int, outputs: int) -> Channel:
    """A channel from `inputs` symbols whose every row is uniform."""
    return Channel(
        range_alphabet(inputs), range_alphabet(outputs), np.full((inputs, outputs), 1.0 / outputs)
    )


def _uniform(n: int) -> SubDist:
    return SubDist.uniform(range_alphabet(n))


def _joint(na: int, ne: int) -> JointDist:
    return JointDist(range_alphabet(na), range_alphabet(ne), np.full((na, ne), 1.0 / (na * ne)))


def _ensemble(p: SubDist, m: int, l: int, fam, w: Channel, **mode):
    return wiretap_ensemble(p, m, l, fam, w, w, **mode)


def _pair_counts():
    # a few maps on 1,024 symbols into M = 64: one symbol's 64 x 1024 x 64 counts
    maps = [np.arange(1024) % 64 + 1] * 3
    return check_strongly_universal2(ExplicitFamily(range_alphabet(1024), 64, maps))


def _one_hot_cells():
    # one symbol into M = 40,000: 40,000 seeds, each a one-hot map of 40,000 cells
    return check_universal2(FullyRandomFamily(range_alphabet(1), 40_000))


def _general_additive():
    mod = Module(2, 10)
    return Channel.general_additive(_joint(mod.size, 2), mod)


def _maps_route():
    # 401 explicit maps x 1,000 symbols x 1,000 side symbols
    maps = np.ones((401, 1000), dtype=int)
    return expected_d1_conditional(_joint(1000, 1000), ExplicitFamily(range_alphabet(1000), 2, maps))


def _transform_route():
    fam = ToeplitzFamily(2, 17, 9)  # 17 x 2^17 + 2^16 seeds x 2^9 x 9 units
    return expected_d1(SubDist.uniform(fam.input_alphabet), fam)


# (call site, refused call, message)
CASES = [
    ("dists.enumerate_types", lambda: enumerate_types(range_alphabet(64), 3),
     "2928640 type counts (45760 types x 64 symbols) exceed cap 1048576"),
    # C(14999, 9000) types: more digits than Python prints by default
    ("dists.enumerate_types past 4,300 digits", lambda: enumerate_types(range_alphabet(6000), 9000),
     "about 10^4385 type counts (about 10^4382 types x 6000 symbols) exceed cap 1048576"),
    ("exponents.maximize_over_rates",
     lambda: universal_exponent(SubDist.bernoulli(0.2), np.linspace(0.0, 0.5, 1024)),
     "1049600 grid cells (1024 rates x 1025 orders) exceed cap 1048576"),
    ("figures.figure_sweep", lambda: figure_sweep(2, 1024),
     "1049600 grid cells (1024 rates x 1025 orders) exceed cap 1048576"),
    ("dists.range_alphabet", lambda: range_alphabet(2**20 + 1),
     "1048577 alphabet symbols exceed cap 1048576"),
    ("figures.figure_sweep points", lambda: figure_sweep(2, 2**20 + 1),
     "1048577 sweep points exceed cap 1048576"),
    ("figures._figure6", lambda: figure_sweep(6, 101),
     "101 points of figure 6 (n = 20, 40, .. up to 2000) exceed cap 100"),
    ("hashing.HashFamily.iter_maps", lambda: list(ToeplitzFamily(2, 17, 1).iter_maps()),
     "8589934592 map cells exceed cap 1000000000"),
    ("hashing.HashFamily.pushforward_blocks",
     lambda: expected_d1(_uniform(3), FullyRandomFamily(range_alphabet(3), 10**7),
                         mode="mc", n_samples=2),
     "10000000 histogram cells (10000000 outputs x 1 side symbols) exceed cap 1048576"),
    # 20 x 2^20 + 2^19 seeds x 2^12 outputs x 12 digits
    ("hashing.LinearFamily.image_counts", lambda: check_universal2(ToeplitzFamily(2, 20, 12)),
     "25790775296 transform units (524288 seeds) exceed cap 250000000"),
    ("hashing._pair_counts", _pair_counts,
     "4194304 pair counts of one symbol (64 x 1024 x 64) exceed cap 1048576"),
    ("hashing._pair_counts one-hot", _one_hot_cells,
     "1600000000 one-hot map cells (1 tiles x 40000 seeds x 1 symbols x 40000 outputs)"
     " exceed cap 1000000000"),
    ("hashing.check_strongly_universal2", lambda: check_strongly_universal2(ToeplitzFamily(2, 12, 9)),
     "2097152 histogram cells (4096 symbols x 512 outputs) exceed cap 1048576"),
    ("intrinsic.build_specialized n", lambda: build_specialized(SubDist.bernoulli(0.2), 10001, 4),
     "10001 trials (n) exceed cap 10000"),
    ("intrinsic.build_specialized records",
     lambda: build_specialized(SubDist.bernoulli(0.2), 9500, 4),
     "36274818 record bytes (9501 types of 28500-bit string masses) exceed cap 33554432"),
    ("hashing.LinearFamily.pushforward_blocks transform", _transform_route,
     "304218112 transform units (65536 seeds) exceed cap 250000000"),
    ("hashing.HashFamily.pushforward_blocks maps", _maps_route,
     "401000000 map cells (401 seeds) exceed cap 400000000"),
    # each seed fills a histogram of 2^20 outputs from 2 symbols
    ("hashing.HashFamily.pushforward_blocks outputs",
     lambda: expected_d1(_uniform(2), FullyRandomFamily(range_alphabet(2), 2**20),
                         mode="mc", n_samples=382),
     "400556032 map cells (382 seeds) exceed cap 400000000"),
    ("hashing.HashFamily.seed_blocks samples",
     lambda: expected_d1(_uniform(3), FullyRandomFamily(range_alphabet(3), 2),
                         mode="mc", n_samples=2_000_001),
     "2000001 samples exceed cap 2000000"),
    # 8^7 seeds, under the one-hot cap of the pair counts
    ("hashing.HashFamily.seed_blocks seeds",
     lambda: check_universal2(FullyRandomFamily(range_alphabet(7), 8)),
     "2097152 seeds exceed cap 2000000"),
    ("privacy._subset_law",
     lambda: expected_d1_conditional(_joint(20, 2), FullyRandomFamily(range_alphabet(20), 2)),
     "2097152 subset cells (2^20 subsets x 2 side symbols) exceed cap 1048576"),
    ("wiretap.Channel.general_additive", _general_additive,
     "2097152 matrix cells exceed cap 1048576"),
    # 32^4 = 2^20 codebooks (at the codebook cap) x 2 seeds
    ("wiretap._require_entries exact",
     lambda: _ensemble(_uniform(32), 2, 2, ToeplitzFamily(2, 2, 1), _channel(32, 2)),
     "2097152 (codebook, seed) entries exceed cap 1048576"),
    ("wiretap._require_entries mc",
     lambda: _ensemble(_uniform(2), 2, 2, ToeplitzFamily(2, 2, 1), _channel(2, 2),
                       mode="mc", n_samples=2**20 + 1),
     "1048577 samples exceed cap 1048576"),
    # M = 1: the class table has a row per codebook, 2^11 rows x (512 + 512)
    ("wiretap.wiretap_ensemble_exact class table",
     lambda: _ensemble(_uniform(2), 1, 11, FullyRandomFamily(range_alphabet(11), 1), _channel(2, 512)),
     "2097152 class-table cells (2048 classes x 1024) exceed cap 1048576"),
    # 2^16 codebooks x 8 seeds, 16 (2 + 256 + 256) kernel cells each
    ("wiretap._require_entries kernel",
     lambda: _ensemble(_uniform(2), 2, 8, ToeplitzFamily(2, 4, 1), _channel(2, 256)),
     "4311744512 kernel cells (524288 entries x 8224) exceed cap 1073741824"),
]


@pytest.mark.parametrize("refuse, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_cap_refuses_in_one_form(refuse, message):
    with pytest.raises(SizeLimitError) as err:
        refuse()
    assert str(err.value) == message


# The only functions that may build a size error.
_BUILDERS = {"require_work", "capped_power"}


def _size_error_sites(tree: ast.Module):
    """(qualified name of the enclosing function, line) of every call of
    SizeLimitError in a module."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "SizeLimitError":
                    sites.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return sites


def test_size_errors_are_built_only_by_the_one_check():
    stray = []
    for path in sorted(_SRC.glob("*.py")):
        for scope, line in _size_error_sites(ast.parse(path.read_text(), str(path))):
            if scope not in _BUILDERS:
                stray.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert stray == []


def test_the_scan_sees_a_stray_raise():
    tree = ast.parse(
        "def f(n):\n    if n > 3:\n        raise SizeLimitError('too big')\n"
        "class H:\n    def seed_blocks(self):\n        raise SizeLimitError('x')\n"
    )
    assert _size_error_sites(tree) == [("f", 3), ("H.seed_blocks", 6)]


def test_folded_caps_and_helpers_are_gone():
    texts = [p.read_text() for p in _SRC.glob("*.py")] + [(_ROOT / "README.md").read_text()]
    for name in ("SUBSET_LIMIT", "MAX_SWEEP_CELLS", "ENSEMBLE_COMBO_LIMIT", "_require_route_work",
                 "KERNEL_VECTOR_LIMIT", "kernel_counts", "collision_counts", "NonEnumerableError",
                 "require_enumerable"):
        assert not any(name in text for text in texts), name
    assert "def _require_work" not in (_SRC / "hashing.py").read_text()
    # each route cap lives with the code that does the work
    privacy = (_SRC / "privacy.py").read_text()
    assert "LinearFamily" not in privacy
    assert not any(name in privacy for name in ("MAPS_LIMIT", "TRANSFORM_LIMIT", "ENUMERATION_LIMIT"))
    assert "GRID_INTERVALS" not in (_SRC / "figures.py").read_text()
    assert (hashing.MAPS_LIMIT, hashing.TRANSFORM_LIMIT) == (400_000_000, 250_000_000)
    assert hashing.ENUMERATION_LIMIT == 2_000_000
