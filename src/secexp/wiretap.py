"""Wiretap channel codes at exactly enumerable scale.

A code is (M, encoder distributions Q_1..Q_M, decoder partition of the
receiver alphabet with a reject cell).  The module evaluates the average
decoding error and Eve's distinguishability exactly, builds hash-based
random codes and nested-linear-code (coset) codes, and provides the phi/psi
channel functionals, their exponents, one closed form for additive and
general-additive channels, and the reverse-Holder ordering between them.
`wiretap_ensemble` is the one entry to the random-coding ensemble, exact or
sampled, for `simulate wiretap` and distillation alike.

A coset code is a hash-partition code: a subcode C2 of a linear code C1 is
named by the Toeplitz seed map f on C1's messages whose kernel it is, and
the cosets of C2 are f's classes.  So the coset ensemble is conditional
privacy amplification of (uniform message, Eve's output) over the Toeplitz
family, read in map blocks like every other sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dists import (
    Alphabet,
    InvariantError,
    JointDist,
    SubDist,
    blocks,
    capped_power,
    fsum,
    fsum_rows,
    index_array,
    kron_power,
    log_fsum_by_order,
    masses,
    order_array,
    product_alphabet,
    range_alphabet,
    require_probability,
    require_same_alphabet,
    require_size,
    require_work,
)
from .exponents import cond_renyi_tilde, maximize_on_interval, maximize_over_rates, phi_cond
from .gf import Module, combination_indices, rank_digits
from .hashing import HashFamily, ToeplitzFamily, check_balanced, check_universal2
from .privacy import EnsembleEstimate, expected_d1_conditional

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
    "wiretap_ensemble",
    "random_coding_error_bound",
    "random_coding_d1_bound",
    "uniform_on_subset",
    "uniform_codeword_joint",
    "condition4_report",
    "coset_code",
    "coset_ensemble_d1",
    "coset_d1_bound",
    "coset_d1_bound_closed",
    "side_information_d1_bound",
    "additive_identities",
    "holder_ordering",
    "EnsembleEntry",
    "WiretapEnsembleResult",
]

# Both modes refuse more (codebook, seed) entries than DEFAULT_MAX_CELLS, the
# cells of each per-entry array (binary M=2, L=8, 524,288 entries, takes about
# 0.2 s), and more kernel cells than this in all, entries times the
# ML (M + |Y| + |Z|) cells `_kernel_cells` charges each: 1 to 6 s at the
# 1-6 ns per cell exact mode takes on a 2-core Xeon (Monte Carlo adds about
# 10 us of draws per sample).
ENSEMBLE_CELL_LIMIT = 1 << 30
# Float slack of markov_select's twice-the-average tests.
MARKOV_SLACK = 1e-12
# Float slack of holder_ordering's margin.
HOLDER_SLACK = 1e-12


class Channel:
    """A stochastic matrix from an input alphabet to an output alphabet.

    A tagged channel carries `noise`, a joint P(Z, Z') over the `module`'s
    symbols and a side alphabet: input x gives output (x + z, z') with
    probability P(z, z') (general-additive); an additive channel is one whose
    side alphabet has one symbol.  Tagged channels reproduce their matrix
    from the tag exactly.
    """

    __slots__ = ("input_alphabet", "output_alphabet", "matrix", "noise", "module")

    def __init__(
        self,
        input_alphabet: Alphabet,
        output_alphabet: Alphabet,
        matrix,
        noise: JointDist | None = None,
        module: Module | None = None,
    ):
        arr = masses(matrix, (input_alphabet.size, output_alphabet.size), "channel matrix")
        if np.abs(arr.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("rows must sum to 1")
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.matrix = arr
        self.noise = noise
        self.module = module

    # -- constructors ------------------------------------------------------

    @classmethod
    def additive(cls, noise: SubDist, module: Module) -> "Channel":
        """W_x(z) = noise(z - x): the general-additive channel of the
        one-column joint."""
        joint = JointDist(noise.alphabet, Alphabet(("0",)), noise.mass[:, None])
        return cls.general_additive(joint, module)

    @classmethod
    def general_additive(cls, joint: JointDist, module: Module) -> "Channel":
        """W_x(z, z') = joint(z - x, z'): masked copy plus side coordinate.

        Output symbols are (z, z') pairs indexed z-major, or the module's
        labels when the side alphabet has one symbol.
        """
        if joint.alphabet_a.size != module.size:
            raise ValueError("noise alphabet must match the module size")
        nx = module.size
        nz2 = joint.alphabet_e.size
        require_work(nx * nx * nz2, "matrix cells")  # before the matrix or its difference table
        in_alph = Alphabet(module.labels())
        pairs = (f"{z},{z2}" for z in in_alph.symbols for z2 in joint.alphabet_e.symbols)
        out_alph = in_alph if nz2 == 1 else Alphabet(tuple(pairs))
        mat = joint.mass[module.sub_table().T].reshape(nx, nx * nz2)
        return cls(in_alph, out_alph, mat, noise=joint, module=module)

    # -- structure ----------------------------------------------------------

    def structure_kind(self) -> str:
        if self.noise is None:
            return "generic"
        return "additive" if self.noise.alphabet_e.size == 1 else "general_additive"

    def verify_structure(self) -> float:
        """Max abs difference between the matrix and its tag reconstruction."""
        if self.noise is None:
            return 0.0
        rebuilt = Channel.general_additive(self.noise, self.module)
        return float(np.abs(rebuilt.matrix - self.matrix).max())

    # -- basic channel quantities -------------------------------------------

    def output_dist(self, p: SubDist) -> np.ndarray:
        require_same_alphabet(p.alphabet, self.input_alphabet, "input distribution and channel input")
        return p.mass @ self.matrix

    def iid_extend(self, n: int) -> "Channel":
        """The n-fold memoryless extension, refused beyond DEFAULT_MAX_CELLS
        matrix cells.

        Tagged channels keep their tag, the n-fold noise joint: outputs are
        regrouped canonically (masked coordinates first), which only permutes
        output labels and changes none of the functionals evaluated here.
        """
        require_size(n, "n")
        capped_power(self.matrix.size, n, "matrix cells")
        if self.noise is not None:
            return Channel.general_additive(*self.module.extend(self.noise, n))
        return Channel(
            product_alphabet(self.input_alphabet, n),
            product_alphabet(self.output_alphabet, n),
            kron_power(self.matrix, n, "matrix cells"),
        )


def phi_channel(w: Channel, p: SubDist, t):
    """log sum_y (sum_x p(x) W_x(y)^(1/(1-t)))^(1-t) for t < 1.

    phi(0) = 0; the slope at 0 is the mutual information I(p; W).  Negative
    t gives the Gallager-style exponent used by the decoding-error bound.
    t may be an array of orders.
    """
    order_array(t, "t", -math.inf, 1.0)
    require_same_alphabet(p.alphabet, w.input_alphabet, "input distribution and channel input")

    def terms(t):
        inner = (p.mass[:, None] * w.matrix ** (1.0 / (1.0 - t))[:, None, None]).sum(axis=1)
        return inner ** (1.0 - t)[:, None]

    return log_fsum_by_order(t, terms, w.matrix.size)


def psi_channel(w: Channel, p: SubDist, t):
    """log sum_y (sum_x p(x) W_x(y)^(1+t)) W_p(y)^(-t) for t > -1; t may be
    an array of orders."""
    order_array(t, "t", -1.0, math.inf)
    wp = w.output_dist(p)
    pos = wp > 0.0

    def terms(t):
        inner = (p.mass[:, None] * w.matrix ** (1.0 + t)[:, None, None]).sum(axis=1)
        return inner[:, pos] * wp[pos] ** (-t)[:, None]

    return log_fsum_by_order(t, terms, w.matrix.size)


def mutual_information(p: SubDist, w: Channel) -> float:
    """I(p; W) in nats."""
    wp = w.output_dist(p)
    x, y = np.nonzero((p.mass[:, None] > 0.0) & (w.matrix > 0.0))
    return fsum(p.mass[x] * w.matrix[x, y] * np.log(w.matrix[x, y] / wp[y]))


def e_phi(r, w: Channel, p: SubDist):
    """max over t in [0, 1/2] of t R - phi(t): Eve-side exponent at sacrifice
    rate R.  Positive exactly when R exceeds I(p; W).  R may be a 1-D array
    of rates (as for the two exponents below), giving one value per rate."""
    fn = lambda t: t * r - phi_channel(w, p, t)
    return maximize_over_rates(fn, 0.0, 0.5, r)[1]


def e_psi(r, w: Channel, p: SubDist):
    """max over s in [0, 1] of (s R - psi(s)) / (1 + s); never above e_phi."""
    fn = lambda s: (s * r - psi_channel(w, p, s)) / (1.0 + s)
    return maximize_over_rates(fn, 0.0, 1.0, r)[1]


def psi_pinsker_exponent(r, w: Channel, p: SubDist):
    """max over s in [0, 1] of (s R - psi(s)) / 2: the mutual-information
    route through Pinsker's inequality."""
    fn = lambda s: (s * r - psi_channel(w, p, s)) / 2.0
    return maximize_over_rates(fn, 0.0, 1.0, r)[1]


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------


class WiretapCode:
    """(M, encoder distributions, decoder partition with reject cell 0)."""

    __slots__ = ("m", "encoders", "decoder")

    def __init__(self, m: int, encoders, decoder):
        # one row per message, any number of codeword columns
        enc = masses(encoders, (m, *np.shape(encoders)[-1:]), "encoder matrix")
        dec = index_array(decoder, (-1,), 0, m, "decoder cells")
        if np.abs(enc.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("encoder rows must sum to 1")
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
    hits = np.where(code.decoder == np.arange(1, code.m + 1)[:, None], out, 0.0)
    return fsum([1.0 - hit for hit in fsum_rows(hits)]) / code.m


def eve_distinguishability(code: WiretapCode, we: Channel) -> float:
    """sum_(i,e) | W_Phi(e)/M - W_(Q_i)(e)/M |, Eve's distinguishability."""
    if code.encoders.shape[1] != we.input_alphabet.size:
        raise ValueError("encoder support must match the channel input")
    rows = code.encoders @ we.matrix  # M x |E|
    mix = np.array(fsum_rows(rows.T)) / code.m  # exact column sums: message order free
    return fsum(np.abs(rows - mix[None, :]) / code.m)


def _require_conditions(p: SubDist, m: int, l: int, fam: HashFamily, *channels: Channel):
    """The random-coding ensemble needs channels whose input alphabet is the
    codewords', a balanced universal_2 family from M*L messages onto M outputs
    and a probability distribution for codewords."""
    for w in channels:
        require_same_alphabet(p.alphabet, w.input_alphabet, "codeword distribution and channel input")
    if fam.input_alphabet.size != m * l or fam.output_size != m:
        raise ValueError("family must map M*L messages onto M outputs")
    require_probability(p, "random coding")
    if not check_universal2(fam).passed:
        raise ValueError("hash family is not universal_2")
    if not check_balanced(fam).passed:
        raise ValueError("hash family is not balanced (equal preimages required)")


def code_from_codebook(
    codebook, f_map, m: int, l: int, wb: Channel
) -> WiretapCode:
    """Assemble the hash-partition code for one codebook and one hash map.

    The ML codewords are split into M classes of size L by the map; message i
    is sent as a uniform draw from class i's codewords, and the receiver
    decodes the full codebook by maximum likelihood (ties to the lowest
    codeword index) before applying the map.
    """
    nx = wb.input_alphabet.size
    cb = index_array(codebook, (m * l,), 0, nx - 1, "codewords")
    f_arr = index_array(f_map, (m * l,), 1, m, "map")
    sizes = np.bincount(f_arr - 1, minlength=m)
    if sizes.min() != l or sizes.max() != l:
        raise ValueError("map must split the codewords into equal classes")
    enc = np.zeros((m, nx))
    np.add.at(enc, (f_arr - 1, cb), 1.0 / l)
    scores = wb.matrix[cb, :]  # ML x |Y|
    best = np.argmax(scores, axis=0)  # lowest index wins ties
    decoder = f_arr[best]
    return WiretapCode(m, enc, decoder)


def _draw(p: SubDist, ml: int, fam: HashFamily, rng: np.random.Generator, count: int = 1):
    """`count` codebooks drawn i.i.d. from p, each followed by one hash seed,
    as (count x ML) and (count x seed_len) arrays: the stream of per-sample
    rng.choice(|X|, ML, p=p.mass) and `sample_seed` calls, cdf built once."""
    cdf = p.mass.cumsum()
    cdf /= cdf[-1]
    uniforms = np.empty((count, ml))
    seeds = np.empty((count, fam.seed_len), dtype=np.int64)
    for k in range(count):
        rng.random(out=uniforms[k])
        seeds[k] = fam.draw_seeds(rng, 1)[0]
    return cdf.searchsorted(uniforms, side="right"), seeds


def random_wiretap_code(
    p: SubDist, m: int, l: int, fam: HashFamily, wb: Channel, rng: np.random.Generator
):
    """Sample one concrete random-coding code.

    Returns (code, codebook, seed).  The family must be universal_2 and
    balanced; codewords are drawn i.i.d. from p.
    """
    _require_conditions(p, m, l, fam, wb)
    (codebook,), (seed,) = _draw(p, m * l, fam, rng)
    code = code_from_codebook(codebook, fam.as_map(seed), m, l, wb)
    return code, tuple(codebook.tolist()), tuple(seed.tolist())


def _class_rows(w: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Message rows of classes given by their codewords (..., L): the sum of
    w[codeword] in codeword order, one += per position, over L; bit for bit
    the one-hot matmul of the encoder, which a pairwise sum (L >= 8) is not."""
    rows = w[digits[..., 0]]
    for k in range(1, digits.shape[-1]):
        rows += w[digits[..., k]]
    return rows / digits.shape[-1]


def _metrics(rows: np.ndarray, decoded: np.ndarray, ny: int):
    """eps and d1 of entries (any leading axes) from their message rows
    (... x M x (|Y| + |Z|), Bob's outputs first) and Bob's decoded messages
    (... x |Y|, values 1..M): `error_prob` and `eve_distinguishability`."""
    m = rows.shape[-2]
    hit = np.take_along_axis(rows[..., :ny], (decoded - 1)[..., None, :], axis=-2)
    eps = 1.0 - hit.sum(axis=(-2, -1)) / m
    eve = rows[..., ny:]
    d1 = np.abs(eve - eve.mean(axis=-2, keepdims=True)).sum(axis=(-2, -1)) / m
    return eps, d1


def _kernel_cells(m: int, l: int, wb: Channel, we: Channel) -> int:
    """Work units of one (codebook, seed) entry: ML (M + |Y| + |Z|)."""
    return m * l * (m + wb.output_alphabet.size + we.output_alphabet.size)


def _require_entries(entries: int, what: str, m: int, l: int, wb: Channel, we: Channel):
    """Refuse more than DEFAULT_MAX_CELLS entries (counted as `what`) or
    ENSEMBLE_CELL_LIMIT kernel cells, before any is enumerated or drawn."""
    require_work(entries, what)
    cells = _kernel_cells(m, l, wb, we)
    require_work(entries * cells, f"kernel cells ({entries} entries x {cells})", ENSEMBLE_CELL_LIMIT)


class EnsembleEntry(NamedTuple):
    codebook: tuple[int, ...]
    seed_index: int
    weight: float
    eps: float
    d1: float


class EnsembleEntries:
    """Read-only sequence of an exact ensemble's entries.

    An `EnsembleEntry` is built on first access and kept, so the same index
    always gives the same object.
    """

    __slots__ = ("_result", "_built")

    def __init__(self, result: "WiretapEnsembleResult"):
        self._result = result
        self._built: dict[int, EnsembleEntry] = {}

    def __len__(self) -> int:
        return len(self._result.eps)

    def __getitem__(self, i: int) -> EnsembleEntry:
        # negative indices and IndexError as for a tuple; iteration relies on
        # the IndexError past the end
        i = range(len(self))[i]
        entry = self._built.get(i)
        if entry is None:
            res = self._result
            cb, seed_index = divmod(i, res.n_seeds)
            entry = EnsembleEntry(
                tuple(int(c) for c in res.codebooks[cb]),
                seed_index,
                float(res.weight[i]),
                float(res.eps[i]),
                float(res.d1[i]),
            )
            self._built[i] = entry
        return entry


@dataclass(frozen=True, eq=False)
class WiretapEnsembleResult:
    """Exact ensemble averages and one value per entry.

    Entry i pairs the nonzero codebook `codebooks[i // n_seeds]` (in
    itertools.product order) with seed index `i % n_seeds`; `weight`, `eps`
    and `d1` are read-only arrays over the entries, and `entries` views them
    as `EnsembleEntry` objects.
    """

    avg_eps: float
    avg_d1: float
    weight: np.ndarray
    eps: np.ndarray
    d1: np.ndarray
    codebooks: np.ndarray
    n_seeds: int
    entries: EnsembleEntries = field(init=False, repr=False)

    def __post_init__(self):
        for arr in (self.weight, self.eps, self.d1, self.codebooks):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", EnsembleEntries(self))


def wiretap_ensemble_exact(
    p: SubDist, m: int, l: int, fam: HashFamily, wb: Channel, we: Channel
) -> WiretapEnsembleResult:
    """Exact ensemble averages over all codebooks and all hash seeds.

    Codebooks are weighted by their i.i.d. probability under p; seeds are
    uniform.  Zero-probability codebooks are skipped.  Message rows are read
    from one table over the |X|^L codeword tuples of a class, and Bob's
    decoder is found once per codebook.  Too many entries (`_require_entries`)
    or table cells are refused before the family is checked or any codebook
    is enumerated.
    """
    nx, ml, n_seeds = p.alphabet.size, m * l, fam.seed_count
    n_codebooks = capped_power(nx, ml, "codebooks")  # refused only past the entry cap
    _require_entries(n_codebooks * n_seeds, "(codebook, seed) entries", m, l, wb, we)
    ny, nz = wb.output_alphabet.size, we.output_alphabet.size
    require_work(nx**l * (ny + nz), f"class-table cells ({nx**l} classes x {ny + nz})")
    _require_conditions(p, m, l, fam, wb, we)
    w = np.concatenate((wb.matrix, we.matrix), axis=1)
    maps = np.concatenate(list(fam.iter_maps()))
    classes = np.argsort(maps, axis=1, kind="stable").reshape(n_seeds, m, l)
    table = _class_rows(w, rank_digits(np.arange(nx**l), nx, l))
    place = nx ** np.arange(l - 1, -1, -1)  # a class's codewords to its table row
    cbs = rank_digits(np.arange(n_codebooks), nx, ml)
    w_cb = np.prod(p.mass[cbs], axis=1)
    keep = w_cb != 0.0
    cbs, weight = cbs[keep], np.repeat(w_cb[keep] / n_seeds, n_seeds)
    eps, d1 = np.empty((len(cbs), n_seeds)), np.empty((len(cbs), n_seeds))
    cells = _kernel_cells(m, l, wb, we)
    for cb in blocks(len(cbs), n_seeds * cells):  # codebooks with all their seeds
        best = wb.matrix[cbs[cb]].argmax(axis=1)  # per codebook: lowest codeword on ties
        for s in blocks(n_seeds, (cb.stop - cb.start) * cells):  # one pass unless one overflows
            rows = table[cbs[cb][:, classes[s]] @ place]  # codebooks x seeds x M x (Y+Z)
            eps[cb, s], d1[cb, s] = _metrics(rows, maps[s][:, best].swapaxes(0, 1), ny)
    eps, d1 = eps.ravel(), d1.ravel()
    return WiretapEnsembleResult(
        avg_eps=fsum(weight * eps),
        avg_d1=fsum(weight * d1),
        weight=weight,
        eps=eps,
        d1=d1,
        codebooks=cbs,
        n_seeds=n_seeds,
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
) -> tuple[EnsembleEstimate, EnsembleEstimate]:
    """Monte Carlo estimates of the ensemble averages of eps and d1, each
    with its standard error.

    Each sample draws a codebook, then a seed, from one random stream and is
    one (codebook, seed) entry of the exact ensemble, under the same caps,
    checked after the count and before the family; the drawn codes are
    evaluated a kernel block at a time."""
    EnsembleEstimate.require_samples(n_samples, seed)
    _require_entries(n_samples, "samples", m, l, wb, we)
    _require_conditions(p, m, l, fam, wb, we)
    rng = np.random.default_rng(seed)
    w, ny = np.concatenate((wb.matrix, we.matrix), axis=1), wb.output_alphabet.size
    eps, d1 = np.empty(n_samples), np.empty(n_samples)
    for block in blocks(n_samples, _kernel_cells(m, l, wb, we)):
        codebooks, seeds = _draw(p, m * l, fam, rng, block.stop - block.start)
        maps = fam.maps_of(seeds)
        digits = np.take_along_axis(codebooks, np.argsort(maps, axis=1, kind="stable"), axis=1)
        decoded = np.take_along_axis(maps, wb.matrix[codebooks].argmax(axis=1), axis=1)
        eps[block], d1[block] = _metrics(_class_rows(w, digits.reshape(-1, m, l)), decoded, ny)
    return EnsembleEstimate.from_samples(eps.tolist()), EnsembleEstimate.from_samples(d1.tolist())


def markov_select(result: WiretapEnsembleResult) -> EnsembleEntry:
    """First realization meeting both twice-the-average guarantees.

    Existence follows from two Markov bounds, each excluding less than half
    of the ensemble mass."""
    ok = (result.eps <= 2.0 * result.avg_eps + MARKOV_SLACK) & (
        result.d1 <= 2.0 * result.avg_d1 + MARKOV_SLACK
    )
    if not ok.any():
        raise InvariantError(
            "Markov selection found no realization within twice both averages"
        )
    return result.entries[int(ok.argmax())]


def wiretap_ensemble(
    p: SubDist,
    m: int,
    l: int,
    fam: HashFamily,
    wb: Channel,
    we: Channel,
    mode: str = "exact",
    n_samples: int = 200,
    seed: int = 0,
) -> tuple[EnsembleEstimate, EnsembleEstimate, EnsembleEntry | None]:
    """The ensemble averages of eps and d1, and the selected realization:
    enumerated with `markov_select`'s entry (exact mode), or sampled with
    none (mc mode)."""
    if mode == "exact":
        res = wiretap_ensemble_exact(p, m, l, fam, wb, we)
        exact = lambda v: EnsembleEstimate(value=v, stderr=None, mode="exact")
        return exact(res.avg_eps), exact(res.avg_d1), markov_select(res)
    if mode == "mc":
        return (*wiretap_ensemble_mc(p, m, l, fam, wb, we, n_samples, seed), None)
    raise ValueError(f"unknown mode {mode!r}")


def random_coding_error_bound(wb: Channel, p: SubDist, ml: int) -> float:
    """min over t in [0,1] of (ML)^t e^(phi(-t)): the Gallager-style ensemble
    guarantee on the average decoding error.  A selected concrete code is
    guaranteed twice this."""
    require_size(ml, "ML")
    fn = lambda t: -(ml**t * np.exp(phi_channel(wb, p, -t)))
    return -maximize_on_interval(fn, 0.0, 1.0)[1]


def random_coding_d1_bound(we: Channel, p: SubDist, l: int) -> float:
    """3 min over t in [0,1/2] of e^(phi(t)) / L^t: the ensemble guarantee on
    Eve's distinguishability; a selected concrete code is guaranteed twice
    this."""
    require_size(l, "L")
    fn = lambda t: -(np.exp(phi_channel(we, p, t)) / l**t)
    return -3.0 * maximize_on_interval(fn, 0.0, 0.5)[1]


def uniform_on_subset(alphabet: Alphabet, indices) -> SubDist:
    """The uniform distribution on a subset, as a SubDist over the alphabet."""
    idx = sorted(set(index_array(indices, (-1,), 0, alphabet.size - 1, "subset indices").tolist()))
    if not idx:
        raise ValueError("subset must be nonempty")
    mass = np.zeros(alphabet.size)
    mass[idx] = 1.0 / len(idx)
    return SubDist(alphabet, mass)


def uniform_codeword_joint(codebook, we: Channel) -> JointDist:
    """Joint of (uniform codeword index, Eve's output) for a fixed codebook."""
    cb = index_array(codebook, (-1,), 0, we.input_alphabet.size - 1, "codewords")
    ml = len(cb)
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
        gens = index_array(generators, (-1, module.n), 0, module.q - 1, "generator digits")
        # over F_p, with q = p^e, g becomes the e generators x^(e-1) g, .., g
        # (the column of each digit's matrix for that basis element), the
        # last generator's last digit varying fastest
        f, e = module.field, module.field.degree
        x = f.digit_matrices()[gens]
        rows = x.transpose(0, 3, 1, 2).reshape(len(gens) * e, module.n * e)
        words = combination_indices(rows[None], f.prime)[0]
        if np.unique(words).size != words.size:
            raise ValueError("generators are not linearly independent")
        self.module = module
        self.generators = tuple(map(tuple, gens.tolist()))
        self.message_codewords = tuple(words.tolist())
        self.codewords = tuple(sorted(self.message_codewords))

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return len(self.codewords)


class Condition4Report(NamedTuple):
    passed: bool
    max_membership: float
    bound: float


def condition4_report(c1: LinearCode, m: int) -> Condition4Report:
    """Check: every nonzero codeword joins the kernel subcode with frequency
    at most L / |C1| = 1 / q^m over the Toeplitz seeds.

    A seed's subcode C2 is the kernel of its map on the messages, the
    messages it sends to output 1, so the frequencies are the kernel column
    of the family's `image_counts`, which `check_universal2` reads; the zero
    message is always there."""
    rep = check_universal2(ToeplitzFamily(c1.module.q, c1.k, m))
    return Condition4Report(rep.passed, rep.max_collision, rep.bound)


def _require_module_input(c1: LinearCode, w: Channel):
    """A coset code's channel reads C1's codewords as its input symbols."""
    if w.input_alphabet.size != c1.module.size:
        raise ValueError(f"channel has {w.input_alphabet.size} input symbols, C1's module {c1.module.size}")


def coset_code(c1: LinearCode, f_map, wb: Channel) -> WiretapCode:
    """The coset code of the kernel subcode of a linear seed map f on C1's
    messages.

    The cosets of the kernel are f's classes, so this is the hash-partition
    code of C1's codewords under f: message i is sent as a uniform draw from
    the codewords of the messages f sends to i, and decoding is maximum
    likelihood over C1 (ties to the lowest codeword) followed by f."""
    _require_module_input(c1, wb)
    f_arr = index_array(f_map, (c1.size,), 1, c1.size, "map")
    order = np.argsort(c1.message_codewords)  # f on C1's codewords, ascending
    m = int(f_arr.max())
    return code_from_codebook(np.array(c1.codewords), f_arr[order], m, c1.size // m, wb)


def coset_ensemble_d1(c1: LinearCode, m: int, we: Channel) -> EnsembleEstimate:
    """Exact average of Eve's distinguishability over the coset codes of all
    Toeplitz seed maps F_q^k -> F_q^m.

    Eve's distinguishability of one coset code is the conditional distance
    of (uniform message, Eve's output) under the seed map, so the average is
    conditional privacy amplification over the family."""
    _require_module_input(c1, we)
    fam = ToeplitzFamily(c1.module.q, c1.k, m)
    joint = JointDist(
        fam.input_alphabet,
        we.output_alphabet,
        we.matrix[list(c1.message_codewords)] / c1.size,
    )
    return expected_d1_conditional(joint, fam)


def coset_d1_bound(we: Channel, c1: LinearCode, l: int) -> float:
    """3 min over t in [0,1/2] of e^(phi(t | W, uniform on C1)) / L^t."""
    _require_module_input(c1, we)
    p_c1 = uniform_on_subset(we.input_alphabet, c1.codewords)
    return random_coding_d1_bound(we, p_c1, l)


def coset_d1_bound_closed(we: Channel, l: int) -> float:
    """The closed form of the coset guarantee for a tagged channel:
    `side_information_d1_bound` of its noise joint.  For an additive channel
    this is 3 min over t of |X|^t e^(-(1-t) H~_(1/(1-t))(noise)) / L^t."""
    if we.noise is None:
        raise ValueError("closed form needs an additive or general-additive tag")
    return side_information_d1_bound(we.noise, l)


def side_information_d1_bound(joint: JointDist, l: int) -> float:
    """3 min over t in [0,1/2] of |A|^t e^(phi(t | joint)) / L^t: the ensemble
    guarantee on Eve's distinguishability over the general-additive channel of
    `joint` (distillation's, on P(A,E)); a selected code is guaranteed twice this."""
    require_size(l, "L")
    size_a = joint.alphabet_a.size
    fn = lambda t: -(size_a**t * np.exp(phi_cond(joint, t)) / l**t)
    return -3.0 * maximize_on_interval(fn, 0.0, 0.5)[1]


# ---------------------------------------------------------------------------
# Additive identities and the reverse-Holder ordering
# ---------------------------------------------------------------------------


class AdditiveIdentityReport(NamedTuple):
    psi_form: float
    phi_form: float
    closed_form: float
    max_discrepancy: float
    escort_form: float  # |X|^t e^(phi of the noise joint)


def additive_identities(w: Channel, t: float) -> AdditiveIdentityReport:
    """For a tagged channel under the uniform input, evaluate

        e^((1-t) psi(t/(1-t))),   e^(phi(t)),   |X|^t e^(-(1-t) H~_(1/(1-t)))

    where the entropy is the conditional order-(1/(1-t)) form of the noise
    joint (side-information average taken outside the power), and the escort
    combination |X|^t e^(phi of the noise joint) in `escort_form`.

    For additive channels (one side symbol) all four coincide to working
    precision.  For general-additive channels only the psi expression equals
    the closed form exactly; the phi expression instead equals the escort
    form, and the reverse-Holder comparison makes it strictly smaller
    whenever the conditional collision sums vary with the side symbol, so
    the three-way discrepancy is genuinely nonzero there.
    """
    order_array(t, "t", 0.0, 1.0, "[)")
    if w.noise is None:
        raise ValueError("identities require an additive or general-additive tag")
    p_mix = SubDist.uniform(w.input_alphabet)
    nx = w.input_alphabet.size
    if t == 0.0:
        psi_form = 1.0
    else:
        psi_form = math.exp((1.0 - t) * psi_channel(w, p_mix, t / (1.0 - t)))
    phi_form = math.exp(phi_channel(w, p_mix, t))
    closed = nx**t * math.exp(-(1.0 - t) * cond_renyi_tilde(w.noise, t / (1.0 - t)))
    escort = nx**t * math.exp(phi_cond(w.noise, t))
    vals = (psi_form, phi_form, closed)
    disc = max(abs(a - b) for a in vals for b in vals)
    return AdditiveIdentityReport(psi_form, phi_form, closed, disc, escort)


class HolderReport(NamedTuple):
    passed: bool
    min_margin: float
    t_grid: tuple[float, ...]


def holder_ordering(w: Channel, p: SubDist, t_grid=None) -> HolderReport:
    """Assert e^((1-t) psi(t/(1-t))) >= e^(phi(t)) on a grid of t in [0, 1/2].

    This is the reverse Holder comparison that makes the phi exponent
    dominate the psi exponent."""
    t = np.linspace(0.0, 0.5, 26) if t_grid is None else np.asarray(t_grid, dtype=float)
    lhs = np.exp((1.0 - t) * psi_channel(w, p, t / (1.0 - t)))
    margin = float(np.min(lhs - np.exp(phi_channel(w, p, t))))
    return HolderReport(passed=margin >= -HOLDER_SLACK, min_margin=margin, t_grid=tuple(t.tolist()))
