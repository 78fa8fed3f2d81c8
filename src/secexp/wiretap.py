"""Wiretap channel codes at exactly enumerable scale.

A code is (M, encoder distributions Q_1..Q_M, decoder partition of the
receiver alphabet with a reject cell).  The module evaluates the average
decoding error and Eve's distinguishability exactly, builds hash-based
random codes and nested-linear-code (coset) codes, and provides the phi/psi
channel functionals, their exponents, the additive-channel closed forms, and
the reverse-Holder ordering between them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dists import (
    Alphabet,
    JointDist,
    SizeLimitError,
    SubDist,
    product_alphabet,
    range_alphabet,
    renyi_tilde,
)
from .exponents import cond_renyi_tilde, maximize_on_interval, phi_cond
from .gf import Module
from .hashing import HashFamily, ToeplitzFamily, check_balanced, check_universal2
from .privacy import EnsembleEstimate

__all__ = [
    "Channel",
    "WiretapCode",
    "LinearCode",
    "phi_channel",
    "psi_channel",
    "mutual_information",
    "e_phi",
    "e_psi",
    "psi_pinsker_exponent",
    "error_prob",
    "eve_distinguishability",
    "code_from_codebook",
    "random_wiretap_code",
    "wiretap_ensemble_exact",
    "wiretap_ensemble_mc",
    "markov_select",
    "random_coding_error_bound",
    "random_coding_d1_bound",
    "uniform_on_subset",
    "uniform_codeword_joint",
    "enumerate_subcodes",
    "sample_subcode",
    "condition4_report",
    "coset_decomposition",
    "coset_code",
    "coset_ensemble_d1",
    "coset_d1_bound",
    "coset_d1_bound_closed",
    "additive_identities",
    "holder_ordering",
    "EnsembleEntry",
    "WiretapEnsembleResult",
]

ENSEMBLE_COMBO_LIMIT = 300_000


class Channel:
    """A stochastic matrix from an input alphabet to an output alphabet.

    Channels may carry an additive tag (the output is input + noise over a
    finite module) or a general-additive tag (an additively masked output
    plus a correlated side output); tagged channels reproduce their matrix
    from the tag exactly.
    """

    __slots__ = ("input_alphabet", "output_alphabet", "matrix", "structure", "module")

    def __init__(
        self,
        input_alphabet: Alphabet,
        output_alphabet: Alphabet,
        matrix,
        structure=None,
        module: Module | None = None,
    ):
        arr = np.array(matrix, dtype=float)
        if arr.shape != (input_alphabet.size, output_alphabet.size):
            raise ValueError(
                f"matrix shape {arr.shape} does not match alphabets "
                f"({input_alphabet.size}, {output_alphabet.size})"
            )
        if arr.min(initial=0.0) < -1e-12:
            raise ValueError("negative transition probability")
        np.clip(arr, 0.0, None, out=arr)
        rows = arr.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-12:
            raise ValueError("rows must sum to 1")
        arr.setflags(write=False)
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.matrix = arr
        self.structure = structure
        self.module = module

    # -- constructors ------------------------------------------------------

    @classmethod
    def additive(cls, noise: SubDist, module: Module) -> "Channel":
        """W_x(z) = noise(z - x) over the module's symbol set."""
        if noise.alphabet.size != module.size:
            raise ValueError("noise alphabet must match the module size")
        if abs(noise.total - 1.0) > 1e-12:
            raise ValueError("noise must be a probability distribution")
        n = module.size
        alph = Alphabet(module.labels())
        mat = np.zeros((n, n))
        for x in range(n):
            for z in range(n):
                mat[x, z] = noise.mass[module.sub_idx(z, x)]
        ch = cls(alph, alph, mat, structure=("additive", noise), module=module)
        return ch

    @classmethod
    def general_additive(cls, joint: JointDist, module: Module) -> "Channel":
        """W_x(z, z') = joint(z - x, z'): masked copy plus side coordinate.

        Output symbols are (z, z') pairs indexed z-major.
        """
        if joint.alphabet_a.size != module.size:
            raise ValueError("joint's first alphabet must match the module size")
        nx = module.size
        nz2 = joint.alphabet_e.size
        in_alph = Alphabet(module.labels())
        out_alph = Alphabet(
            tuple(
                f"{z},{z2}"
                for z in in_alph.symbols
                for z2 in joint.alphabet_e.symbols
            )
        )
        mat = np.zeros((nx, nx * nz2))
        for x in range(nx):
            for z in range(nx):
                src = module.sub_idx(z, x)
                mat[x, z * nz2 : (z + 1) * nz2] = joint.mass[src, :]
        return cls(
            in_alph, out_alph, mat, structure=("general_additive", joint), module=module
        )

    # -- structure ----------------------------------------------------------

    def structure_kind(self) -> str:
        if self.structure is None:
            return "generic"
        return self.structure[0]

    def verify_structure(self) -> float:
        """Max abs difference between the matrix and its tag reconstruction."""
        if self.structure is None:
            return 0.0
        kind, payload = self.structure
        if kind == "additive":
            rebuilt = Channel.additive(payload, self.module)
        elif kind == "general_additive":
            rebuilt = Channel.general_additive(payload, self.module)
        else:
            raise ValueError(f"unknown structure {kind!r}")
        return float(np.abs(rebuilt.matrix - self.matrix).max())

    # -- basic channel quantities -------------------------------------------

    def output_dist(self, p: SubDist) -> np.ndarray:
        if p.alphabet != self.input_alphabet:
            raise ValueError("input distribution alphabet mismatch")
        return p.mass @ self.matrix

    def iid_extend(self, n: int, max_cells: int = 1 << 20) -> "Channel":
        """The n-fold memoryless extension.

        Tagged channels keep their tag: outputs are regrouped canonically
        (additive coordinates first), which only permutes output labels and
        changes none of the functionals evaluated here.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.structure is not None:
            kind, payload = self.structure
            mod_n = Module(self.module.q, self.module.n * n)
            if kind == "additive":
                from .dists import iid_extend as _iid

                noise_n = _iid(payload, n, max_cells)
                noise_n = SubDist(Alphabet(mod_n.labels()), noise_n.mass)
                return Channel.additive(noise_n, mod_n)
            joint_n = payload.iid_extend(n)
            joint_n = JointDist(
                Alphabet(mod_n.labels()), joint_n.alphabet_e, joint_n.mass
            )
            return Channel.general_additive(joint_n, mod_n)
        cells = (self.input_alphabet.size * self.output_alphabet.size) ** n
        if cells > max_cells:
            raise SizeLimitError(f"{cells} matrix cells exceed cap {max_cells}")
        mat = self.matrix
        for _ in range(n - 1):
            mat = np.kron(mat, self.matrix)
        return Channel(
            product_alphabet(self.input_alphabet, n),
            product_alphabet(self.output_alphabet, n),
            mat,
        )


def phi_channel(w: Channel, p: SubDist, t: float) -> float:
    """log sum_y (sum_x p(x) W_x(y)^(1/(1-t)))^(1-t) for t < 1.

    phi(0) = 0; the slope at 0 is the mutual information I(p; W).  Negative
    t gives the Gallager-style exponent used by the decoding-error bound.
    """
    if t >= 1.0:
        raise ValueError("t must be < 1")
    if p.alphabet != w.input_alphabet:
        raise ValueError("input distribution alphabet mismatch")
    alpha = 1.0 / (1.0 - t)
    inner = (p.mass[:, None] * w.matrix**alpha).sum(axis=0)
    return math.log(float(math.fsum((inner ** (1.0 - t)).tolist())))


def psi_channel(w: Channel, p: SubDist, t: float) -> float:
    """log sum_y (sum_x p(x) W_x(y)^(1+t)) W_p(y)^(-t) for t > -1."""
    if t <= -1.0:
        raise ValueError("t must be > -1")
    if p.alphabet != w.input_alphabet:
        raise ValueError("input distribution alphabet mismatch")
    wp = w.output_dist(p)
    inner = (p.mass[:, None] * w.matrix ** (1.0 + t)).sum(axis=0)
    pos = wp > 0.0
    terms = inner[pos] * wp[pos] ** (-t)
    return math.log(float(math.fsum(terms.tolist())))


def mutual_information(p: SubDist, w: Channel) -> float:
    """I(p; W) in nats."""
    wp = w.output_dist(p)
    acc = []
    for x in range(w.input_alphabet.size):
        px = p.mass[x]
        if px <= 0.0:
            continue
        row = w.matrix[x]
        pos = row > 0.0
        acc.extend((px * row[pos] * np.log(row[pos] / wp[pos])).tolist())
    return float(math.fsum(acc))


def e_phi(r: float, w: Channel, p: SubDist) -> float:
    """max over t in [0, 1/2] of t R - phi(t): Eve-side exponent at sacrifice
    rate R.  Positive exactly when R exceeds I(p; W)."""
    fn = lambda t: t * r - phi_channel(w, p, t)
    _, val = maximize_on_interval(fn, 0.0, 0.5)
    return val


def e_psi(r: float, w: Channel, p: SubDist) -> float:
    """max over s in [0, 1] of (s R - psi(s)) / (1 + s); never above e_phi."""
    fn = lambda s: (s * r - psi_channel(w, p, s)) / (1.0 + s)
    _, val = maximize_on_interval(fn, 0.0, 1.0)
    return val


def psi_pinsker_exponent(r: float, w: Channel, p: SubDist) -> float:
    """max over s in [0, 1] of (s R - psi(s)) / 2: the mutual-information
    route through Pinsker's inequality."""
    fn = lambda s: (s * r - psi_channel(w, p, s)) / 2.0
    _, val = maximize_on_interval(fn, 0.0, 1.0)
    return val


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------


class WiretapCode:
    """(M, encoder distributions, decoder partition with reject cell 0)."""

    __slots__ = ("m", "encoders", "decoder")

    def __init__(self, m: int, encoders, decoder):
        enc = np.array(encoders, dtype=float)
        dec = np.asarray(decoder, dtype=np.int64)
        if enc.shape[0] != m:
            raise ValueError("need one encoder distribution per message")
        if enc.min(initial=0.0) < -1e-12:
            raise ValueError("negative encoder mass")
        np.clip(enc, 0.0, None, out=enc)
        if np.abs(enc.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("encoder rows must sum to 1")
        if dec.min(initial=0) < 0 or dec.max(initial=0) > m:
            raise ValueError("decoder cells must lie in 0..M")
        enc.setflags(write=False)
        dec.setflags(write=False)
        self.m = m
        self.encoders = enc
        self.decoder = dec


def error_prob(code: WiretapCode, wb: Channel) -> float:
    """Average probability that the decoded message differs from the sent one
    (the reject cell counts as an error)."""
    if code.encoders.shape[1] != wb.input_alphabet.size:
        raise ValueError("encoder support must match the channel input")
    if code.decoder.shape[0] != wb.output_alphabet.size:
        raise ValueError("decoder must cover the channel output")
    out = code.encoders @ wb.matrix  # M x |Y|
    errs = []
    for i in range(code.m):
        good = code.decoder == (i + 1)
        errs.append(1.0 - math.fsum(out[i, good].tolist()))
    return math.fsum(errs) / code.m


def eve_distinguishability(code: WiretapCode, we: Channel) -> float:
    """sum_(i,e) | W_Phi(e)/M - W_(Q_i)(e)/M |, Eve's distinguishability."""
    if code.encoders.shape[1] != we.input_alphabet.size:
        raise ValueError("encoder support must match the channel input")
    rows = code.encoders @ we.matrix  # M x |E|
    mix = rows.mean(axis=0)
    return float(math.fsum((np.abs(rows - mix[None, :]) / code.m).ravel().tolist()))


def _require_conditions(p: SubDist, m: int, l: int, fam: HashFamily):
    """The random-coding ensemble needs a balanced universal_2 family from
    M*L messages onto M outputs and a probability distribution for codewords."""
    if not check_universal2(fam).passed:
        raise ValueError("hash family is not universal_2")
    if not check_balanced(fam).passed:
        raise ValueError("hash family is not balanced (equal preimages required)")
    if fam.input_alphabet.size != m * l or fam.output_size != m:
        raise ValueError("family must map M*L messages onto M outputs")
    if abs(p.total - 1.0) > 1e-12:
        raise ValueError("codeword distribution must be a probability distribution")


def code_from_codebook(
    codebook, f_map, m: int, l: int, wb: Channel
) -> WiretapCode:
    """Assemble the hash-partition code for one codebook and one hash map.

    The ML codewords are split into M classes of size L by the map; message i
    is sent as a uniform draw from class i's codewords, and the receiver
    decodes the full codebook by maximum likelihood (ties to the lowest
    codeword index) before applying the map.
    """
    cb = np.asarray(codebook, dtype=np.int64)
    f_arr = np.asarray(f_map, dtype=np.int64)
    ml = m * l
    if cb.shape != (ml,) or f_arr.shape != (ml,):
        raise ValueError("codebook and map must have length M*L")
    sizes = np.bincount(f_arr - 1, minlength=m)
    if sizes.min() != l or sizes.max() != l:
        raise ValueError("map must split the codewords into equal classes")
    nx = wb.input_alphabet.size
    enc = np.zeros((m, nx))
    np.add.at(enc, (f_arr - 1, cb), 1.0 / l)
    scores = wb.matrix[cb, :]  # ML x |Y|
    best = np.argmax(scores, axis=0)  # lowest index wins ties
    decoder = f_arr[best]
    return WiretapCode(m, enc, decoder)


def _draw_code(
    p: SubDist, m: int, l: int, fam: HashFamily, wb: Channel, rng: np.random.Generator
):
    codebook = tuple(
        int(c) for c in rng.choice(p.alphabet.size, size=m * l, p=p.mass)
    )
    seed = fam.sample_seed(rng)
    code = code_from_codebook(codebook, fam.as_map(seed), m, l, wb)
    return code, codebook, seed


def random_wiretap_code(
    p: SubDist, m: int, l: int, fam: HashFamily, wb: Channel, rng: np.random.Generator
):
    """Sample one concrete random-coding code.

    Returns (code, codebook, seed).  The family must be universal_2 and
    balanced; codewords are drawn i.i.d. from p.
    """
    _require_conditions(p, m, l, fam)
    return _draw_code(p, m, l, fam, wb, rng)


@dataclass(frozen=True)
class EnsembleEntry:
    codebook: tuple[int, ...]
    seed_index: int
    weight: float
    eps: float
    d1: float


@dataclass(frozen=True)
class WiretapEnsembleResult:
    avg_eps: float
    avg_d1: float
    entries: tuple[EnsembleEntry, ...]


def wiretap_ensemble_exact(
    p: SubDist, m: int, l: int, fam: HashFamily, wb: Channel, we: Channel
) -> WiretapEnsembleResult:
    """Exact ensemble averages over all codebooks and all hash seeds.

    Codebooks are weighted by their i.i.d. probability under p; seeds are
    uniform.  Zero-probability codebooks are skipped.
    """
    _require_conditions(p, m, l, fam)
    ml = m * l
    nx = p.alphabet.size
    n_seeds = fam.seed_count
    if (nx**ml) * n_seeds > ENSEMBLE_COMBO_LIMIT:
        raise SizeLimitError("ensemble too large for exact enumeration")
    maps = list(fam.iter_maps())
    entries = []
    eps_terms = []
    d1_terms = []
    for codebook in itertools.product(range(nx), repeat=ml):
        w_cb = float(np.prod(p.mass[list(codebook)]))
        if w_cb == 0.0:
            continue
        for seed_idx, f_map in enumerate(maps):
            code = code_from_codebook(codebook, f_map, m, l, wb)
            eps = error_prob(code, wb)
            d1 = eve_distinguishability(code, we)
            weight = w_cb / n_seeds
            entries.append(EnsembleEntry(codebook, seed_idx, weight, eps, d1))
            eps_terms.append(weight * eps)
            d1_terms.append(weight * d1)
    return WiretapEnsembleResult(
        avg_eps=math.fsum(eps_terms),
        avg_d1=math.fsum(d1_terms),
        entries=tuple(entries),
    )


def wiretap_ensemble_mc(
    p: SubDist,
    m: int,
    l: int,
    fam: HashFamily,
    wb: Channel,
    we: Channel,
    n_samples: int = 200,
    seed: int = 0,
):
    """Monte Carlo estimate of the ensemble averages; returns a dict with
    means and standard errors for both metrics."""
    _require_conditions(p, m, l, fam)
    rng = np.random.default_rng(seed)
    eps_vals, d1_vals = [], []
    for _ in range(n_samples):
        code, _, _ = _draw_code(p, m, l, fam, wb, rng)
        eps_vals.append(error_prob(code, wb))
        d1_vals.append(eve_distinguishability(code, we))
    eps = EnsembleEstimate.from_samples(eps_vals)
    d1 = EnsembleEstimate.from_samples(d1_vals)
    return {
        "eps": eps.value,
        "eps_stderr": eps.stderr,
        "d1": d1.value,
        "d1_stderr": d1.stderr,
        "n_samples": n_samples,
    }


def markov_select(result: WiretapEnsembleResult, slack: float = 1e-12) -> EnsembleEntry:
    """First realization meeting both twice-the-average guarantees.

    Existence follows from two Markov bounds, each excluding less than half
    of the ensemble mass."""
    for entry in result.entries:
        if (
            entry.eps <= 2.0 * result.avg_eps + slack
            and entry.d1 <= 2.0 * result.avg_d1 + slack
        ):
            return entry
    raise RuntimeError("no realization within twice both averages; invariant broken")


def random_coding_error_bound(wb: Channel, p: SubDist, ml: int) -> float:
    """min over t in [0,1] of (ML)^t e^(phi(-t)): the Gallager-style ensemble
    guarantee on the average decoding error.  A selected concrete code is
    guaranteed twice this."""
    fn = lambda t: -(ml**t * math.exp(phi_channel(wb, p, -t)))
    _, neg = maximize_on_interval(fn, 0.0, 1.0)
    return -neg


def random_coding_d1_bound(we: Channel, p: SubDist, l: int) -> float:
    """3 min over t in [0,1/2] of e^(phi(t)) / L^t: the ensemble guarantee on
    Eve's distinguishability; a selected concrete code is guaranteed twice
    this."""
    fn = lambda t: -(math.exp(phi_channel(we, p, t)) / l**t)
    _, neg = maximize_on_interval(fn, 0.0, 0.5)
    return 3.0 * (-neg)


def uniform_on_subset(alphabet: Alphabet, indices) -> SubDist:
    """The uniform distribution on a subset, as a SubDist over the alphabet."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValueError("subset must be nonempty")
    mass = np.zeros(alphabet.size)
    mass[idx] = 1.0 / len(idx)
    return SubDist(alphabet, mass)


def uniform_codeword_joint(codebook, we: Channel) -> JointDist:
    """Joint of (uniform codeword index, Eve's output) for a fixed codebook."""
    cb = np.asarray(codebook, dtype=np.int64)
    ml = cb.shape[0]
    mass = we.matrix[cb, :] / ml
    return JointDist(range_alphabet(ml), we.output_alphabet, mass)


# ---------------------------------------------------------------------------
# Linear codes and coset codes
# ---------------------------------------------------------------------------


class LinearCode:
    """A linear code C in F_q^n given by independent generator rows.

    Messages u in F_q^k are enumerated big-endian; `message_codewords[u]` is
    the module symbol index of the codeword sum_i u_i g_i.
    """

    __slots__ = ("module", "generators", "message_codewords", "codewords")

    def __init__(self, module: Module, generators):
        gens = tuple(tuple(int(d) for d in g) for g in generators)
        for g in gens:
            if len(g) != module.n:
                raise ValueError("generator length must match the module")
            if any(not 0 <= d < module.q for d in g):
                raise ValueError("generator digit out of range")
        f = module.field
        k = len(gens)
        words = []
        for u in itertools.product(range(module.q), repeat=k):
            acc = (0,) * module.n
            for coef, g in zip(u, gens):
                acc = tuple(
                    f.add(a, f.mul(coef, b)) for a, b in zip(acc, g)
                )
            words.append(module.index(acc))
        if len(set(words)) != len(words):
            raise ValueError("generators are not linearly independent")
        self.module = module
        self.generators = gens
        self.message_codewords = tuple(words)
        self.codewords = tuple(sorted(words))

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return len(self.codewords)


def enumerate_subcodes(c1: LinearCode, m: int) -> list[tuple[tuple, frozenset]]:
    """All hash-kernel subcodes of size q^(k-m), one per Toeplitz seed.

    The kernel of each seed's surjective linear map on the message space is a
    size-L submodule; any fixed nonzero codeword lands in the kernel with
    probability at most 1/M over the seed (the universal_2 collision bound
    against the zero message).
    """
    fam = ToeplitzFamily(c1.module.q, c1.k, m)
    out = []
    for seed in fam.iter_seeds():
        f_map = fam.as_map(seed)
        members = frozenset(
            c1.message_codewords[u] for u in range(len(f_map)) if f_map[u] == 1
        )
        out.append((seed, members))
    return out


def sample_subcode(c1: LinearCode, m: int, rng: np.random.Generator):
    fam = ToeplitzFamily(c1.module.q, c1.k, m)
    seed = fam.sample_seed(rng)
    f_map = fam.as_map(seed)
    members = frozenset(
        c1.message_codewords[u] for u in range(len(f_map)) if f_map[u] == 1
    )
    return seed, members


@dataclass(frozen=True)
class Condition4Report:
    passed: bool
    max_membership: float
    bound: float


def condition4_report(
    c1: LinearCode, subcodes, l: int, tol: float = 1e-12
) -> Condition4Report:
    """Check: every nonzero codeword joins the sampled subcode with frequency
    at most L / |C1|."""
    zero = c1.message_codewords[0]
    n_sub = len(subcodes)
    worst = 0.0
    for x in c1.codewords:
        if x == zero:
            continue
        freq = sum(1 for _, members in subcodes if x in members) / n_sub
        worst = max(worst, freq)
    bound = l / c1.size
    return Condition4Report(passed=worst <= bound + tol, max_membership=worst, bound=bound)


def coset_decomposition(c1: LinearCode, c2_members: frozenset) -> list[list[int]]:
    """Cosets of the subcode inside C1, ordered by smallest member."""
    if not c2_members <= set(c1.codewords):
        raise ValueError("subcode members must lie inside the code")
    mod = c1.module
    remaining = set(c1.codewords)
    cosets = []
    for x in c1.codewords:
        if x not in remaining:
            continue
        coset = sorted(mod.add_idx(x, c) for c in c2_members)
        cosets.append(coset)
        remaining -= set(coset)
    return cosets


def coset_code(
    c1: LinearCode, c2_members: frozenset, wb: Channel | None = None
) -> WiretapCode:
    """The coset code: messages are cosets of C2 in C1, each encoded as the
    uniform distribution on its coset; decoding is maximum likelihood over C1
    (ties to the lowest codeword) followed by the coset map, or all-reject
    when no receiver channel is given."""
    cosets = coset_decomposition(c1, c2_members)
    m = len(cosets)
    nx = c1.module.size
    enc = np.zeros((m, nx))
    for i, coset in enumerate(cosets):
        enc[i, coset] = 1.0 / len(coset)
    if wb is None:
        # Eve-side-only code: empty decoder rejects everything.
        return WiretapCode(m, enc, np.zeros(0, dtype=np.int64))
    coset_of = {}
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i + 1
    cw = np.array(c1.codewords, dtype=np.int64)
    scores = wb.matrix[cw, :]
    best = np.argmax(scores, axis=0)
    decoder = np.array([coset_of[int(cw[b])] for b in best], dtype=np.int64)
    return WiretapCode(m, enc, decoder)


def coset_ensemble_d1(
    c1: LinearCode, m: int, we: Channel
) -> tuple[float, list[float]]:
    """Average of Eve's distinguishability over all hash-kernel subcodes."""
    values = []
    for _, members in enumerate_subcodes(c1, m):
        cosets = coset_decomposition(c1, members)
        enc = np.zeros((len(cosets), c1.module.size))
        for i, coset in enumerate(cosets):
            enc[i, coset] = 1.0 / len(coset)
        code = WiretapCode(len(cosets), enc, np.zeros(0, dtype=np.int64))
        values.append(eve_distinguishability(code, we))
    return math.fsum(values) / len(values), values


def coset_d1_bound(we: Channel, c1: LinearCode, l: int) -> float:
    """3 min over t in [0,1/2] of e^(phi(t | W, uniform on C1)) / L^t."""
    p_c1 = uniform_on_subset(we.input_alphabet, c1.codewords)
    return random_coding_d1_bound(we, p_c1, l)


def coset_d1_bound_closed(we: Channel, l: int) -> float:
    """The additive / general-additive closed form of the coset guarantee:
    3 min over t of |X|^t e^(-(1-t) H~_(1/(1-t))) / L^t, with the conditional
    version of the entropy for general-additive channels."""
    kind = we.structure_kind()
    nx = we.input_alphabet.size

    if kind == "additive":
        noise = we.structure[1]
        inner = lambda t: nx**t * math.exp(
            -(1.0 - t) * renyi_tilde(noise, t / (1.0 - t))
        )
    elif kind == "general_additive":
        joint = we.structure[1]
        inner = lambda t: nx**t * math.exp(phi_cond(joint, t))
    else:
        raise ValueError("closed form needs an additive or general-additive tag")
    fn = lambda t: -(inner(t) / l**t)
    _, neg = maximize_on_interval(fn, 0.0, 0.5)
    return 3.0 * (-neg)


# ---------------------------------------------------------------------------
# Additive identities and the reverse-Holder ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveIdentityReport:
    psi_form: float
    phi_form: float
    closed_form: float
    max_discrepancy: float
    escort_form: float | None = None  # |X|^t e^(phi of the conditional joint)


def additive_identities(w: Channel, t: float) -> AdditiveIdentityReport:
    """For a tagged channel under the uniform input, evaluate

        e^((1-t) psi(t/(1-t))),   e^(phi(t)),   |X|^t e^(-(1-t) H~_(1/(1-t)))

    where for general-additive tags the entropy is the conditional order-
    (1/(1-t)) form (side-information average taken outside the power).

    For plain additive channels the three coincide to working precision.
    For general-additive channels only the psi expression equals the closed
    form exactly; the phi expression instead equals the escort combination
    |X|^t e^(phi of the conditional joint) reported in `escort_form`, and the
    reverse-Holder comparison makes it strictly smaller whenever the
    conditional collision sums vary with the side symbol, so the three-way
    discrepancy is genuinely nonzero there.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("t must be in [0, 1)")
    kind = w.structure_kind()
    if kind == "generic":
        raise ValueError("identities require an additive or general-additive tag")
    p_mix = SubDist.uniform(w.input_alphabet)
    nx = w.input_alphabet.size
    if t == 0.0:
        psi_form = 1.0
    else:
        psi_form = math.exp((1.0 - t) * psi_channel(w, p_mix, t / (1.0 - t)))
    phi_form = math.exp(phi_channel(w, p_mix, t))
    escort = None
    if kind == "additive":
        noise = w.structure[1]
        # t = 0 means order-1 entropy of a probability vector, which is 0
        closed = nx**t * math.exp(-(1.0 - t) * renyi_tilde(noise, t / (1.0 - t)))
    else:
        joint = w.structure[1]
        closed = nx**t * math.exp(
            -(1.0 - t) * cond_renyi_tilde(joint, t / (1.0 - t))
        )
        escort = nx**t * math.exp(phi_cond(joint, t))
    vals = (psi_form, phi_form, closed)
    disc = max(abs(a - b) for a in vals for b in vals)
    return AdditiveIdentityReport(psi_form, phi_form, closed, disc, escort)


@dataclass(frozen=True)
class HolderReport:
    passed: bool
    min_margin: float
    t_grid: tuple[float, ...]


def holder_ordering(
    w: Channel, p: SubDist, t_grid=None, tol: float = 1e-12
) -> HolderReport:
    """Assert e^((1-t) psi(t/(1-t))) >= e^(phi(t)) on a grid of t in [0, 1/2].

    This is the reverse Holder comparison that makes the phi exponent
    dominate the psi exponent."""
    if t_grid is None:
        t_grid = np.linspace(0.0, 0.5, 26)
    min_margin = math.inf
    for t in t_grid:
        t = float(t)
        lhs = 1.0 if t == 0.0 else math.exp(
            (1.0 - t) * psi_channel(w, p, t / (1.0 - t))
        )
        rhs = math.exp(phi_channel(w, p, t))
        min_margin = min(min_margin, lhs - rhs)
    return HolderReport(
        passed=min_margin >= -tol,
        min_margin=min_margin,
        t_grid=tuple(float(t) for t in t_grid),
    )
