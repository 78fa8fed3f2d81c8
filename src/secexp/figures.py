"""Reference figure sweeps: exponent comparison curves as CSV-ready rows.

Each sweep returns header scalars (echoed as CSV comments) and rows of
(x, curve_name, value).  Curve ordering facts that hold pointwise:

  * sweep 2: the Cramer exponent sits between the Holenstein-Renner lower
    and upper exponents on their validity window;
  * sweep 3: phi form >= Pinsker form >= order-2 form without smoothing;
  * sweep 4: e_phi >= e_psi >= the psi/Pinsker form;
  * sweep 6: the heavy-mass floor's rate >= the specialized map's rate,
    since the floor is below the map's exact distance at every n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dists import (
    Alphabet,
    SubDist,
    renyi_tilde,
    renyi_tilde_derivative,
    require_work,
    shannon_entropy,
)
from .exponents import (
    cramer_exponent_restricted,
    critical_rate,
    holenstein_renner_exponents,
    universal_exponent,
)
from .intrinsic import build_specialized, specialized_exponent, specialized_map_d1
from .wiretap import (
    Channel,
    e_phi,
    e_psi,
    mutual_information,
    psi_pinsker_exponent,
)

__all__ = [
    "FigureData",
    "figure_sweep",
    "example_channel",
    "example_channel_reported_info",
    "binary_entropy",
]

BERN_P = 0.2
EXAMPLE_A = 0.05
SPECIALIZED_R = 0.3
SPECIALIZED_N_STEP = 20


class FigureData(NamedTuple):
    figure_id: int
    header: dict
    rows: list  # (x, curve_name, value)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def example_channel(a: float = EXAMPLE_A) -> Channel:
    """The binary asymmetric example: W_0 = (a, 1-a), W_1 = (1-9a, 9a)."""
    alph = Alphabet(("0", "1"))
    return Channel(alph, alph, [[a, 1.0 - a], [1.0 - 9.0 * a, 9.0 * a]])


def example_channel_reported_info(a: float = EXAMPLE_A) -> float:
    """The reported mutual-information formula h(1/2 - 5a) - (h(a) + h(9a))/2.

    Note: the true uniform-input mixture of this channel is (1/2 - 4a, ...),
    so this formula disagrees with the matrix-derived mutual information;
    both are reported and only this one reproduces the stated 0.119.
    """
    return binary_entropy(0.5 - 5.0 * a) - (
        binary_entropy(a) + binary_entropy(9.0 * a)
    ) / 2.0


def _figure2(points: int) -> FigureData:
    p = SubDist.bernoulli(BERN_P)
    h = shannon_entropy(p)
    h2p = renyi_tilde_derivative(p, 1.0)
    window_start = h - math.log(3.0) / 24.0
    header = {
        "p": BERN_P,
        "h": h,
        "h2_prime": h2p,
        "window_start": window_start,
    }
    rates = np.linspace(window_start, h, points)
    cramer = cramer_exponent_restricted(p, rates).value
    rows = []
    for r, value in zip(rates.tolist(), cramer.tolist()):
        rows.append((r, "cramer", value))
        hr = holenstein_renner_exponents(p, r)
        rows.append((r, "hr_lower", hr.lower))
        rows.append((r, "hr_upper", hr.upper))
    return FigureData(2, header, rows)


def _figure3(points: int) -> FigureData:
    p = SubDist.bernoulli(BERN_P)
    h = shannon_entropy(p)
    h2 = renyi_tilde(p, 1.0)
    header = {"p": BERN_P, "h": h, "critical_rate": critical_rate(p)}
    rates = np.linspace(0.0, h, points)
    phi = universal_exponent(p, rates).value
    pinsker = cramer_exponent_restricted(p, rates).value / 2.0
    rows = []
    for r, phi_r, pinsker_r in zip(rates.tolist(), phi.tolist(), pinsker.tolist()):
        rows.append((r, "phi_form", phi_r))
        rows.append((r, "pinsker_form", pinsker_r))
        rows.append((r, "no_smoothing", (h2 - r) / 2.0))
    return FigureData(3, header, rows)


def _figure4(points: int) -> FigureData:
    w = example_channel()
    p = SubDist.uniform(w.input_alphabet)
    i_reported = example_channel_reported_info()
    i_matrix = mutual_information(p, w)
    header = {"a": EXAMPLE_A, "i_reported": i_reported, "i_matrix": i_matrix}
    rates = np.linspace(i_reported, math.log(2.0), points)
    phi, psi, pinsker = (form(rates, w, p).tolist() for form in (e_phi, e_psi, psi_pinsker_exponent))
    rows = []
    for r, phi_r, psi_r, pinsker_r in zip(rates.tolist(), phi, psi, pinsker):
        rows.append((r, "e_phi", phi_r))
        rows.append((r, "e_psi", psi_r))
        rows.append((r, "psi_pinsker", pinsker_r))
    return FigureData(4, header, rows)


def _figure6(points: int) -> FigureData:
    """-(1/n) log of the specialized map's exact distance and of the
    heavy-mass floor, for Bern(0.2)^n into M = round(e^(R n)) cells at
    n = 20, 40, .., beside the specialized exponent they approach."""
    require_work(points, "points of figure 6 (n = 20, 40, .. up to 2000)", 100)
    p = SubDist.bernoulli(BERN_P)
    res = specialized_exponent(p, SPECIALIZED_R)
    header = {
        "p": BERN_P,
        "R": SPECIALIZED_R,
        "M": "round(e^(R n))",
        "specialized_exponent": res.value,
        "exponent_authoritative": res.note is None,
    }
    rows = []
    for n in range(SPECIALIZED_N_STEP, SPECIALIZED_N_STEP * points + 1, SPECIALIZED_N_STEP):
        smap = build_specialized(p, n, round(math.exp(SPECIALIZED_R * n)))
        for curve, value in (
            ("d1", specialized_map_d1(p, smap)),
            ("heavy_mass_floor", smap.heavy_mass_floor()),
        ):
            rows.append((n, curve, -math.log(value) / n if value > 0.0 else math.inf))
        rows.append((n, "specialized_exponent", res.value))
    return FigureData(6, header, rows)


def figure_sweep(figure_id: int, points: int = 50) -> FigureData:
    """Sweep the comparison curves for one of the reference figures (2, 3, 4, 6)."""
    sweeps = {2: _figure2, 3: _figure3, 4: _figure4, 6: _figure6}
    if figure_id not in sweeps:
        raise ValueError(f"unknown figure id {figure_id}")
    if points < 2:
        raise ValueError("need at least 2 sweep points")
    require_work(points, "sweep points")  # before any grid of them is built
    return sweeps[figure_id](points)
