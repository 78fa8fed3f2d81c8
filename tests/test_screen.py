"""The screened grid of the 1-D optimizer: the kernel's convexity bracket
holds, and every optimization returns, bit for bit, what the exhaustive grid
gives."""

import importlib.util
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from secexp import distill, dists, exponents, figures, jsonio, wiretap  # noqa: F401 (traced)
from secexp.dists import _SCREEN_STRIDE as SCREEN_STRIDE, JointDist, SubDist, range_alphabet, renyi_tilde, shannon_entropy
from secexp.exponents import (
    cond_renyi_tilde,
    conditional_exponent_phi,
    conditional_exponent_pinsker,
    cramer_exponent,
    cramer_exponent_restricted,
    phi_cond,
    universal_exponent,
    universal_hash_d1_bound,
)
from secexp.wiretap import Channel, phi_channel, psi_channel

GRID = exponents.GRID_INTERVALS + 1
seeds = st.integers(0, 2**32 - 1)


def masses(rng, shape):
    """Random masses over 300 decades: about half of them 1e-300 to 1 on a
    log scale, the rest uniform."""
    spread = 10.0 ** -rng.uniform(0.0, 300.0, shape)
    return np.where(rng.random(shape) < 0.5, spread, rng.random(shape))


def source(rng, size):
    w = masses(rng, size)
    return SubDist(range_alphabet(size), w / w.sum())


def joint(rng, a, e):
    w = masses(rng, (a, e))
    return JointDist(range_alphabet(a), range_alphabet(e), w / w.sum())


def channel(rng, x, y):
    w = masses(rng, (x, y))
    return Channel(range_alphabet(x), range_alphabet(y), w / w.sum(axis=1, keepdims=True))


def grid_calls(fn, orders):
    """fn's values at each call `dists.grid_argmax` makes on the orders, with
    the screen the call ran under and that screen's kernel calls so far."""
    calls = []

    def recording(o):
        values = fn(o)
        screen = dists._screen
        calls.append((values, screen, screen and screen.calls))
        return values

    dists.grid_argmax(recording, orders)
    return calls


def screened_sides(fn, orders):
    """fn on the orders under `dists.grid_argmax`'s screen, served the lower
    side and then the upper side of the kernel's bracket."""
    (first, screen, calls), (second, again, calls_again) = grid_calls(fn, orders)[:2]
    assert screen is again
    assert screen.bracket is not None and calls == 1
    assert screen.bracket is not None and calls_again == 1
    return first, second


def _source_functional(rng, n):
    p = source(rng, n)
    return lambda s: renyi_tilde(p, s)


def _joint_functional(form, e):
    def build(rng, n):
        j = joint(rng, n // e, e)
        return lambda t: form(j, t)

    return build


def _channel_functional(form, x):
    def build(rng, n):
        w, p = channel(rng, x, n // x), source(rng, x)
        return lambda t: form(w, p, t)

    return build


# name: (builder of a functional of at least `cells` cells, order range)
FUNCTIONALS = {
    "renyi_tilde": (_source_functional, (0.0, 1.0)),
    "renyi_tilde-cramer": (_source_functional, (0.0, 4.0)),
    "cond_renyi_tilde": (_joint_functional(cond_renyi_tilde, 16), (0.0, 1.0)),
    "phi_cond": (_joint_functional(phi_cond, 32), (0.0, 0.5)),
    "phi_cond-at-minus-s": (_joint_functional(phi_cond, 8), (0.0, -1.0)),
    "phi_channel": (_channel_functional(phi_channel, 8), (0.0, 0.5)),
    "phi_channel-at-minus-t": (_channel_functional(phi_channel, 16), (0.0, -1.0)),
    "psi_channel": (_channel_functional(psi_channel, 4), (0.0, 1.0)),
}


class TestBracket:
    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(seed=seeds, cells=st.sampled_from([1024, 4096]))
    def test_holds_at_every_order(self, name, seed, cells):
        build, (lo, hi) = FUNCTIONALS[name]
        fn = build(np.random.default_rng(seed), cells)
        orders = np.linspace(lo, hi, GRID)
        exact = fn(orders)  # outside a screen
        first, second = screened_sides(fn, orders)
        low, high = np.minimum(first, second), np.maximum(first, second)
        assert ((low <= exact) & (exact <= high)).all()
        # the bracket is tight enough to screen: a knot's width is its margin
        assert (high - low)[::SCREEN_STRIDE].max() < 1e-9

    def test_short_or_small_calls_are_exact(self):
        rng = np.random.default_rng(3)
        p, small = source(rng, 1024), source(rng, 1023)
        orders = np.linspace(0.0, 1.0, SCREEN_STRIDE + 1)  # two knots only
        for dist, grid in ((p, orders), (small, np.linspace(0.0, 1.0, GRID))):
            [(values, screen, _)] = grid_calls(lambda o: renyi_tilde(dist, o), grid)
            assert screen.bracket is None
            assert values.tobytes() == renyi_tilde(dist, grid).tobytes()


@contextmanager
def exhaustive_grid(monkeypatch):
    """The optimizer with the argmax of the whole exact grid, and the same
    polish: the oracle of the screened grid."""
    with monkeypatch.context() as m:
        m.setattr(
            exponents,
            "grid_argmax",
            lambda fn, grid: np.argmax(np.asarray(fn(grid), dtype=float).reshape(len(grid), -1), axis=0),
        )
        yield


@pytest.fixture
def screens(monkeypatch):
    """Every screen the optimizer opens."""
    opened = []

    class Recording(dists._Screen):
        def __init__(self, points):
            super().__init__(points)
            opened.append(self)

    monkeypatch.setattr(dists, "_Screen", Recording)
    return opened


def assert_same_as_exhaustive(run, monkeypatch, screens):
    got = run()
    with exhaustive_grid(monkeypatch):
        want = run()
    assert repr(got) == repr(want)
    assert any(s.bracket is not None for s in screens)  # a bracket was built
    return got


def rates_across(h):
    """Rates of a source of entropy h whose maximizers fall at both ends and
    inside."""
    return h * np.array([0.0, 0.5, 0.97, 0.99, 0.999, 1.1])


def hypothesis_settings(examples):
    # the fixtures only record and patch within one example, so sharing
    # them across examples is sound
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


class TestOptimizerBitIdentical:
    @hypothesis_settings(2)
    @given(seed=seeds)
    def test_hash_bound(self, seed, monkeypatch, screens):
        p = source(np.random.default_rng(seed), 1024)
        inside = round(math.exp(0.5 * (renyi_tilde(p, 1.0) + shannon_entropy(p))))
        argmins = [
            assert_same_as_exhaustive(lambda: universal_hash_d1_bound(p, m), monkeypatch, screens).argmin_s
            for m in (2, inside, 1 << 40)
        ]
        assert argmins[0] == 1.0 and 0.0 < argmins[1] < 1.0 and argmins[2] == 0.0

    @pytest.mark.parametrize("form", [universal_exponent, cramer_exponent_restricted])
    @hypothesis_settings(2)
    @given(seed=seeds)
    def test_source_exponents(self, form, seed, monkeypatch, screens):
        p = source(np.random.default_rng(seed), 1024)
        rates = rates_across(shannon_entropy(p))
        run = lambda r: (lambda: (lambda e: (e.value, e.argmax))(form(p, r)))
        assert_same_as_exhaustive(run(rates), monkeypatch, screens)
        for r in rates[[0, 3, -1]].tolist():
            assert_same_as_exhaustive(run(r), monkeypatch, screens)

    @hypothesis_settings(3)
    @given(seed=seeds)
    def test_cramer_exponent(self, seed, monkeypatch, screens):
        # a heavy atom keeps log sum P^(1+s) above the screen's floor up to
        # the search cap s = 100
        w = 0.9 * source(np.random.default_rng(seed), 1024).mass
        w[0] += 0.1
        p = SubDist(range_alphabet(1024), w)
        floor, h = -math.log(float(p.mass.max())), shannon_entropy(p)
        for r in np.linspace(floor, h, 4)[1:-1].tolist():
            assert_same_as_exhaustive(lambda: cramer_exponent(p, r), monkeypatch, screens)

    def test_cramer_exponent_under_the_floor(self, monkeypatch, screens):
        # at R = 6.8 the bracket's lower side falls under _SCREEN_FLOOR, so
        # the screen refuses it and sums the whole grid exactly
        w = 1.0 + np.random.default_rng(0).random(1024)
        p = SubDist(range_alphabet(1024), w / w.sum())
        run = lambda: (lambda e: (e.value, e.argmax))(cramer_exponent(p, 6.8))
        got = run()
        assert screens and all(s.bracket is None for s in screens)
        with exhaustive_grid(monkeypatch):
            assert repr(run()) == repr(got)
        assert got[0] == 0.21814347082138852
        # the floor alone refused it
        monkeypatch.setattr(dists, "_SCREEN_FLOOR", -math.inf)
        screens.clear()
        run()
        assert screens[0].bracket is not None

    @pytest.mark.parametrize("form", [conditional_exponent_phi, conditional_exponent_pinsker])
    @hypothesis_settings(3)
    @given(seed=seeds)
    def test_conditional_exponents(self, form, seed, monkeypatch, screens):
        j = joint(np.random.default_rng(seed), 64, 16)
        h = dists.conditional_shannon_entropy(j)
        for r in rates_across(h)[[0, 3, 5]].tolist():
            assert_same_as_exhaustive(lambda: form(j, r), monkeypatch, screens)

    @pytest.mark.parametrize("form", [wiretap.e_phi, wiretap.e_psi, wiretap.psi_pinsker_exponent])
    @hypothesis_settings(3)
    @given(seed=seeds)
    def test_channel_exponents(self, form, seed, monkeypatch, screens):
        rng = np.random.default_rng(seed)
        w, p = channel(rng, 8, 128), source(rng, 8)
        rates = wiretap.mutual_information(p, w) * np.array([0.5, 1.01, 1.1, 1.5, 3.0, 10.0])
        assert_same_as_exhaustive(lambda: form(rates, w, p), monkeypatch, screens)
        for r in rates[[0, 2, 5]].tolist():
            assert_same_as_exhaustive(lambda: form(r, w, p), monkeypatch, screens)

    @hypothesis_settings(3)
    @given(seed=seeds)
    def test_random_coding_bounds(self, seed, monkeypatch, screens):
        rng = np.random.default_rng(seed)
        w, p, j = channel(rng, 8, 128), source(rng, 8), joint(rng, 128, 8)
        for size in (2, 16, 4096):
            for run in (
                lambda: wiretap.random_coding_error_bound(w, p, size),  # phi at -t
                lambda: wiretap.random_coding_d1_bound(w, p, size),
                lambda: wiretap.side_information_d1_bound(j, size),
                lambda: distill.distillation_error_bound(j, size, 2),  # phi_cond at -s
            ):
                assert_same_as_exhaustive(run, monkeypatch, screens)

    def test_maximizers_at_both_ends_and_inside(self, monkeypatch, screens):
        p = source(np.random.default_rng(5), 1024)
        rates = rates_across(shannon_entropy(p))
        got = assert_same_as_exhaustive(lambda: universal_exponent(p, rates).argmax, monkeypatch, screens)
        assert got[0] == 1.0 and got[-1] == 0.0 and ((got > 0.0) & (got < 1.0)).any()

    def test_two_screened_calls_fall_back(self, monkeypatch, screens):
        rng = np.random.default_rng(6)
        p, q = source(rng, 1024), source(rng, 1024)
        run = lambda: exponents.maximize_on_interval(lambda s: renyi_tilde(p, s) - renyi_tilde(q, s), 0.0, 1.0)
        assert_same_as_exhaustive(run, monkeypatch, screens)
        assert screens[0].calls == 2


_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerCounting:
    """The benchmark tracer wraps each optimizer objective in `_counting`,
    which iterates one value per point: both bracket sides pass through it."""

    def test_screened_runs_under_the_tracer(self, screens):
        rng = np.random.default_rng(7)
        p, j = source(rng, 4096), joint(rng, 64, 32)
        runs = (
            lambda: universal_hash_d1_bound(p, 64),
            lambda: conditional_exponent_phi(j, 0.5 * dists.conditional_shannon_entropy(j)),
        )
        plain = [repr(run()) for run in runs]
        tracer = _load_tracer().Tracer()
        tracer.install()
        try:
            traced = [repr(run()) for run in runs]
        finally:
            tracer.uninstall()
        assert tracer.missing == []
        assert traced == plain
        assert tracer.counts["exponents.maximize_on_interval.objective_evals"] > 4 * GRID
        assert sum(s.bracket is not None for s in screens) == 4
