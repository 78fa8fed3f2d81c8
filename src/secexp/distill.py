"""One-way secret key distillation via the masked-channel reduction.

Alice draws a fresh uniform x over the module alphabet and publishes
x' = x - a.  Bob then sees (b, x') and Eve sees (e, x'), which turns the
correlated triple into a pair of general-additive channels; the wiretap
machinery applies directly, and the achievable key rate is
H(A|E) - H(A|B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import (
    Alphabet,
    JointDist,
    SubDist,
    conditional_shannon_entropy,
)
from .exponents import maximize_on_interval, phi_cond
from .gf import Module
from .hashing import HashFamily, fit_toeplitz
from .wiretap import (
    Channel,
    markov_select,
    wiretap_ensemble_exact,
    wiretap_ensemble_mc,
)

__all__ = [
    "CorrelationTriple",
    "channels_from_joint",
    "distillation_error_bound",
    "distillation_d1_bound",
    "run_distillation",
    "DistillationReport",
]


class CorrelationTriple:
    """Initial joints P(A,B) and P(A,E) over a module alphabet, sharing A."""

    __slots__ = ("pab", "pae", "module")

    def __init__(self, pab: JointDist, pae: JointDist, module: Module):
        if pab.alphabet_a.size != module.size or pae.alphabet_a.size != module.size:
            raise ValueError("A-alphabet must match the module size")
        gap = float(
            np.abs(pab.mass.sum(axis=1) - pae.mass.sum(axis=1)).max()
        )
        if gap > 1e-12:
            raise ValueError(f"A-marginals disagree by {gap}")
        self.pab = pab
        self.pae = pae
        self.module = module

    def iid_extend(self, n: int) -> "CorrelationTriple":
        mod_n = Module(self.module.q, self.module.n * n)
        pab_n = self.pab.iid_extend(n)
        pae_n = self.pae.iid_extend(n)
        alph = Alphabet(mod_n.labels())
        return CorrelationTriple(
            JointDist(alph, pab_n.alphabet_e, pab_n.mass),
            JointDist(alph, pae_n.alphabet_e, pae_n.mass),
            mod_n,
        )

    def rate(self) -> float:
        """Achievable key rate H(A|E) - H(A|B)."""
        return conditional_shannon_entropy(self.pae) - conditional_shannon_entropy(
            self.pab
        )


def _negated_joint(j: JointDist, module: Module) -> JointDist:
    """Permute the first axis by group negation (identity in characteristic 2)."""
    perm = [module.neg_idx(i) for i in range(module.size)]
    return JointDist(j.alphabet_a, j.alphabet_e, j.mass[perm, :])


def channels_from_joint(tri: CorrelationTriple) -> tuple[Channel, Channel]:
    """The reduced channels W^B_x(b, x') = P(A=x-x', B=b) and likewise for Eve.

    Both come out general-additive: the masked coordinate is x' and the side
    coordinate is the party's initial variable.  Channel outputs are (x',
    side) pairs in the canonical order of Channel.general_additive.
    """
    wb = Channel.general_additive(_negated_joint(tri.pab, tri.module), tri.module)
    we = Channel.general_additive(_negated_joint(tri.pae, tri.module), tri.module)
    return wb, we


def distillation_error_bound(pab: JointDist, m: int, l: int, factor: float = 2.0) -> float:
    """factor * min over s in [0,1] of (ML)^s |A|^(-s) e^(-(1+s) H~_(1/(1+s))(A|B)).

    The conditional entropy enters through the phi functional at -s; with
    factor 2 this is the concrete-code display, factor 1 the ensemble form.
    """
    size_a = pab.alphabet_a.size
    ml = m * l
    fn = lambda s: -(ml**s * size_a ** (-s) * math.exp(phi_cond(pab, -s)))
    _, neg = maximize_on_interval(fn, 0.0, 1.0)
    return factor * (-neg)


def distillation_d1_bound(pae: JointDist, l: int, factor: float = 6.0) -> float:
    """factor * min over t in [0,1/2] of |A|^t e^(-(1-t) H~_(1/(1-t))(A|E)) / L^t.

    Factor 6 is the concrete-code display; factor 3 the ensemble form.
    """
    size_a = pae.alphabet_a.size
    fn = lambda t: -(size_a**t * math.exp(phi_cond(pae, t)) / l**t)
    _, neg = maximize_on_interval(fn, 0.0, 0.5)
    return factor * (-neg)


@dataclass(frozen=True)
class DistillationReport:
    m: int
    l: int
    mode: str
    eps: float
    d1: float
    eps_stderr: float | None
    d1_stderr: float | None
    bound_eps_ensemble: float
    bound_eps_code: float
    bound_d1_ensemble: float
    bound_d1_code: float
    selected_eps: float | None
    selected_d1: float | None
    rate: float
    h_a_given_e: float
    h_a_given_b: float


def _default_family(m: int, l: int) -> HashFamily:
    for q in (2, 3, 5, 7):
        fam = fit_toeplitz(m, l, q)
        if fam is not None:
            return fam
    raise ValueError(
        f"no built-in balanced universal_2 family for M={m}, L={l}; pass one explicitly"
    )


def run_distillation(
    tri: CorrelationTriple,
    m: int,
    l: int,
    fam: HashFamily | None = None,
    mode: str = "exact",
    n_samples: int = 200,
    seed: int = 0,
) -> DistillationReport:
    """Build the reduced-channel wiretap code and evaluate it against the
    conditional-entropy bound displays.

    The code draws ML codewords i.i.d. uniform on the module alphabet and
    hashes them down to M messages with a balanced universal_2 family.  In
    exact mode the ensemble is enumerated and a realization within twice
    both averages is selected; in mc mode the averages are sampled.
    """
    if fam is None:
        fam = _default_family(m, l)
    wb, we = channels_from_joint(tri)
    p_mix = SubDist.uniform(wb.input_alphabet)
    if mode == "exact":
        res = wiretap_ensemble_exact(p_mix, m, l, fam, wb, we)
        chosen = markov_select(res)
        eps, d1 = res.avg_eps, res.avg_d1
        eps_se = d1_se = None
        sel_eps, sel_d1 = chosen.eps, chosen.d1
    elif mode == "mc":
        stats = wiretap_ensemble_mc(
            p_mix, m, l, fam, wb, we, n_samples=n_samples, seed=seed
        )
        eps, d1 = stats["eps"], stats["d1"]
        eps_se, d1_se = stats["eps_stderr"], stats["d1_stderr"]
        sel_eps = sel_d1 = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return DistillationReport(
        m=m,
        l=l,
        mode=mode,
        eps=eps,
        d1=d1,
        eps_stderr=eps_se,
        d1_stderr=d1_se,
        bound_eps_ensemble=distillation_error_bound(tri.pab, m, l, factor=1.0),
        bound_eps_code=distillation_error_bound(tri.pab, m, l, factor=2.0),
        bound_d1_ensemble=distillation_d1_bound(tri.pae, l, factor=3.0),
        bound_d1_code=distillation_d1_bound(tri.pae, l, factor=6.0),
        selected_eps=sel_eps,
        selected_d1=sel_d1,
        rate=tri.rate(),
        h_a_given_e=conditional_shannon_entropy(tri.pae),
        h_a_given_b=conditional_shannon_entropy(tri.pab),
    )
