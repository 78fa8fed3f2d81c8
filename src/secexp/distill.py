"""One-way secret key distillation via the masked-channel reduction.

Alice draws a fresh uniform x over the module alphabet and publishes
x' = x - a.  Bob then sees (b, x') and Eve sees (e, x'), which turns the
correlated triple into a pair of general-additive channels, and distillation
is the wiretap pipeline on them (`wiretap.wiretap_ensemble`, the family of
`fit_toeplitz`, Eve's bound `side_information_d1_bound` on P(A,E)).  The
achievable key rate is H(A|E) - H(A|B).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dists import JointDist, SubDist, conditional_shannon_entropy, require_size
from .exponents import maximize_on_interval, phi_cond
from .gf import Module, combination_indices
from .hashing import HashFamily, fit_toeplitz
from .wiretap import Channel, wiretap_ensemble
from .wiretap import side_information_d1_bound as distillation_d1_bound

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
        """n independent copies of the triple, over F_q^(n0 n)."""
        pab_n, mod_n = self.module.extend(self.pab, n)
        return CorrelationTriple(pab_n, self.module.extend(self.pae, n)[0], mod_n)

    def rate(self) -> float:
        """Achievable key rate H(A|E) - H(A|B)."""
        return conditional_shannon_entropy(self.pae) - conditional_shannon_entropy(
            self.pab
        )


def _negated_joint(j: JointDist, module: Module) -> JointDist:
    """Permute the first axis by group negation (identity in characteristic 2):
    -x is x's digits over F_p combining the negated unit vectors, so no
    |X| x |X| table is built before the channel's size is checked."""
    p, n = module.field.prime, module.n * module.field.degree
    neg = combination_indices(-np.eye(n, dtype=np.int64)[None] % p, p)[0]
    return JointDist(j.alphabet_a, j.alphabet_e, j.mass[neg, :])


def channels_from_joint(tri: CorrelationTriple) -> tuple[Channel, Channel]:
    """The reduced channels W^B_x(b, x') = P(A=x-x', B=b) and likewise for Eve.

    Both come out general-additive: the masked coordinate is x' and the side
    coordinate is the party's initial variable.  Channel outputs are (x',
    side) pairs in the canonical order of Channel.general_additive.
    """
    wb = Channel.general_additive(_negated_joint(tri.pab, tri.module), tri.module)
    we = Channel.general_additive(_negated_joint(tri.pae, tri.module), tri.module)
    return wb, we


def distillation_error_bound(pab: JointDist, m: int, l: int) -> float:
    """min over s in [0,1] of (ML)^s |A|^(-s) e^(-(1+s) H~_(1/(1+s))(A|B)):
    the ensemble guarantee on the decoding error; a selected concrete code is
    guaranteed twice this.

    The conditional entropy enters through the phi functional at -s.
    """
    require_size(m, "M")
    require_size(l, "L")
    size_a = pab.alphabet_a.size
    ml = m * l
    fn = lambda s: -(ml**s * size_a ** (-s) * np.exp(phi_cond(pab, -s)))
    return -maximize_on_interval(fn, 0.0, 1.0)[1]


class DistillationReport(NamedTuple):
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
    hashes them down to M messages with a balanced universal_2 family, by
    default `fit_toeplitz(M, L)`.  The ensemble is `wiretap_ensemble` on the
    reduced channels: enumerated with a realization within twice both
    averages selected (exact mode), or sampled (mc mode).
    """
    fam = fit_toeplitz(m, l) if fam is None else fam
    wb, we = channels_from_joint(tri)
    p_mix = SubDist.uniform(wb.input_alphabet)
    eps, d1, chosen = wiretap_ensemble(p_mix, m, l, fam, wb, we, mode, n_samples, seed)
    bound_eps = distillation_error_bound(tri.pab, m, l)
    bound_d1 = distillation_d1_bound(tri.pae, l)
    return DistillationReport(
        m=m,
        l=l,
        mode=mode,
        eps=eps.value,
        d1=d1.value,
        eps_stderr=eps.stderr,
        d1_stderr=d1.stderr,
        bound_eps_ensemble=bound_eps,
        bound_eps_code=2.0 * bound_eps,
        bound_d1_ensemble=bound_d1,
        bound_d1_code=2.0 * bound_d1,
        selected_eps=None if chosen is None else chosen.eps,
        selected_d1=None if chosen is None else chosen.d1,
        rate=tri.rate(),
        h_a_given_e=conditional_shannon_entropy(tri.pae),
        h_a_given_b=conditional_shannon_entropy(tri.pab),
    )
