"""Command-line front-end.

Subcommands: entropy, exponent, figure, simulate pa, simulate wiretap,
intrinsic, distill, hash check.  Outputs are JSON (sorted keys) or CSV with
12 significant digits and '\\n' line endings, so identical invocations with
the same seed produce byte-identical files.

Exit codes: 0 success, 2 validation error (an input that cannot be read or an
--out path that cannot be written included), 3 size-limit error, 4 broken
internal invariant (the message names it), 1 a fault of the program (a
traceback: an exception of another kind, or a ValueError raised outside
secexp).
"""

from __future__ import annotations

import functools
import gc
import math
import sys

import click
import numpy as np

from . import intrinsic as intr
from .dists import (
    InvariantError,
    SizeLimitError,
    SubDist,
    range_alphabet,
    renyi,
    renyi_tilde,
    renyi_tilde_derivative,
    shannon_entropy,
)
from .exponents import (
    conditional_exponent_phi,
    conditional_exponent_pinsker,
    cramer_exponent,
    critical_rate,
    divergence_exponent,
    holenstein_renner_exponents,
    universal_exponent,
    universal_hash_d1_bound,
    order2_d1_bound,
)
from .distill import CorrelationTriple, run_distillation
from .figures import figure_sweep
from .gf import Module
from .hashing import (
    FullyRandomFamily,
    ToeplitzFamily,
    check_balanced,
    check_strongly_universal2,
    check_universal2,
    fit_toeplitz,
)
from .jsonio import InputValidationError, load_channel, load_joint, load_subdist
from .privacy import best_subset_lower_bound, expected_d1
from .wiretap import random_coding_d1_bound, random_coding_error_bound, wiretap_ensemble

_FLOAT_FMT = ".12g"


def _jsonify(obj):
    if hasattr(obj, "_asdict"):  # a NamedTuple record, before the tuple branch
        return _jsonify(obj._asdict())
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _jsonify(float(obj))
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(format(obj + 0.0, _FLOAT_FMT))
    return obj


def _write(text: str, out: str):
    if out == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise InputValidationError(f"{out}: cannot be written: {e.strerror or e}") from None


def _emit_json(payload, out: str):
    import json

    _write(json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n", out)


def _cell(v) -> str:
    if isinstance(v, float):
        return format(v + 0.0, _FLOAT_FMT)
    return "" if v is None else str(v)


def _emit_csv(header_lines, rows, columns, out: str):
    parts = [f"# {line}" for line in header_lines]
    parts.append(",".join(columns))
    parts.extend(",".join(map(_cell, row)) for row in rows)
    _write("\n".join(parts) + "\n", out)


class _Refusals(click.Group):
    """The root group: every command's refusals leave with their exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SizeLimitError as e:
            code, message = 3, f"size limit exceeded: {e}"
        except ValueError as e:
            tb = e.__traceback__
            while tb.tb_next is not None:  # to the frame that raised it
                tb = tb.tb_next
            if tb.tb_frame.f_globals.get("__package__") != __package__:
                raise  # numpy's or another library's own: a program fault, exit 1
            code, message = 2, f"invalid input: {e}"
        except InvariantError as e:
            code, message = 4, f"internal invariant broken: {e}"
        click.echo(message, err=True)
        sys.exit(code)


def _options(*options):
    """One decorator for options listed in the order --help shows them."""
    return lambda f: functools.reduce(lambda g, option: option(g), reversed(options), f)


def _ensemble_options(samples: int):
    """--mode, --samples (default `samples`) and --seed of an exact or sampled ensemble."""
    return _options(
        click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact",
                     show_default=True),
        click.option("--samples", default=samples, show_default=True, type=int),
        click.option("--seed", default=0, show_default=True, type=int, help="RNG seed, a non-negative integer."),
    )


out_option = click.option(
    "--out", default="-", show_default=True, help="Output path ('-' = stdout)."
)


@click.group(cls=_Refusals)
def cli():
    """Secrecy bounds and exponents at exactly enumerable scale."""


@cli.command()
@click.option("--dist", "dist_path", required=True, help="Distribution JSON.")
@click.option("--s", "s_values", multiple=True, type=float, help="Extra Renyi orders 1+s.")
@out_option
def entropy(dist_path, s_values, out):
    """Entropy summary of a distribution (nats)."""
    p = load_subdist(dist_path)
    payload = {
        "total": p.total,
        "shannon": shannon_entropy(p),
        "renyi_tilde_2": renyi_tilde(p, 1.0),
        "renyi_tilde_2_derivative": renyi_tilde_derivative(p, 1.0),
        "min_entropy": -math.log(float(p.mass.max())),
    }
    if p.is_probability():
        payload["critical_rate"] = critical_rate(p)
    if s_values:
        payload["renyi_tilde"] = {
            format(s, ".6g"): renyi_tilde(p, s) for s in s_values
        }
        payload["renyi"] = {format(s, ".6g"): renyi(p, s) for s in s_values}
    _emit_json(payload, out)


@cli.command()
@click.option("--dist", "dist_path", help="Distribution JSON (marginal forms).")
@click.option("--joint", "joint_path", help="Joint JSON (conditional form).")
@click.option("--R", "rate", required=True, type=float, help="Rate in nats.")
@click.option(
    "--form",
    type=click.Choice(["universal", "divergence", "cramer", "hr", "cond"]),
    default="universal",
    show_default=True,
)
@out_option
def exponent(dist_path, joint_path, rate, form, out):
    """Exponent and bound evaluations at a given rate."""
    if form == "cond":
        if joint_path is None:
            raise InputValidationError("--joint is required for the cond form")
        j = load_joint(joint_path)
        phi_res = conditional_exponent_phi(j, rate)
        pin_res = conditional_exponent_pinsker(j, rate)
        payload = {
            "phi_form": {"value": phi_res.value, "argmax_t": phi_res.argmax},
            "pinsker_form": {"value": pin_res.value, "argmax_s": pin_res.argmax},
        }
    elif dist_path is None:
        raise InputValidationError("--dist is required for this form")
    else:
        p = load_subdist(dist_path)
    if form == "universal":
        res = universal_exponent(p, rate)
        payload = {"value": res.value, "argmax_s": res.argmax}
    elif form == "divergence":
        res = divergence_exponent(p, rate)
        payload = {
            "value": res.value,
            "witness_mass": res.witness.mass if res.witness else None,
            "method": res.method,
        }
    elif form == "cramer":
        res = cramer_exponent(p, rate)
        payload = {
            "value": res.value,
            "argmax_s": res.argmax,
            "diverges": res.diverges,
            "note": res.note,
        }
    elif form == "hr":
        payload = holenstein_renner_exponents(p, rate)._asdict()
    payload.update({"form": form, "R": rate})
    _emit_json(payload, out)


@cli.command()
@click.option("--id", "figure_id", required=True, type=click.Choice(["2", "3", "4", "6"]))
@click.option("--points", default=50, show_default=True, type=int)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
@out_option
def figure(figure_id, points, fmt, out):
    """Reproduce the comparison-curve data for one reference figure."""
    data = figure_sweep(int(figure_id), points)
    if fmt == "json":
        _emit_json(
            {"figure": data.figure_id, "header": data.header, "rows": data.rows}, out
        )
        return
    header_lines = [
        f"{k} = {format(v, _FLOAT_FMT) if isinstance(v, float) else v}"
        for k, v in data.header.items()
    ]
    _emit_csv(header_lines, data.rows, ("x", "curve", "value"), out)


def _family_from_flags(kind, q, k, m, big_m, alphabet):
    if kind == "toeplitz":
        if q is None or k is None or m is None:
            raise InputValidationError("toeplitz family needs --q, --k, --m")
        return ToeplitzFamily(q, k, m)
    if big_m is None:
        raise InputValidationError("fully-random family needs --M")
    if alphabet is None:
        raise InputValidationError("fully-random family needs an input alphabet (--size)")
    return FullyRandomFamily(alphabet, big_m)


def _family_options(family: str):
    """--family (default `family`) and the sizes `_family_from_flags` reads."""
    return _options(
        click.option("--family", type=click.Choice(["toeplitz", "fullrandom"]), default=family,
                     show_default=True),
        click.option("--q", type=int, help="Field size (toeplitz)."),
        click.option("--k", type=int, help="Input length over F_q (toeplitz)."),
        click.option("--m", type=int, help="Output length over F_q (toeplitz)."),
        click.option("--M", "big_m", type=int, help="Output size (fullrandom)."),
    )


@cli.group(name="hash")
def hash_group():
    """Hash-family utilities."""


@hash_group.command(name="check")
@_family_options("toeplitz")
@click.option("--size", type=int, help="Input alphabet size (fullrandom).")
@out_option
def hash_check(family, q, k, m, size, big_m, out):
    """Exhaustively check the ensemble conditions of a hash family."""
    alphabet = range_alphabet(size) if size is not None else None
    fam = _family_from_flags(family, q, k, m, big_m, alphabet)
    # first: its caps are the strictest of the three, so any refusal comes before a sweep
    rep3 = check_strongly_universal2(fam)
    rep1 = check_universal2(fam)
    rep2 = check_balanced(fam)
    _emit_json(
        {
            "family": family,
            "seed_count": fam.seed_count,
            "condition1": "pass" if rep1.passed else "fail",
            "max_collision": rep1.max_collision,
            "collision_bound": rep1.bound,
            "condition2": "pass" if rep2.passed else "fail",
            "condition3": "pass" if rep3.passed else "fail",
            "max_single_deviation": rep3.max_single_deviation,
            "max_pair_deviation": rep3.max_pair_deviation,
        },
        out,
    )


@cli.group()
def simulate():
    """Exact or Monte Carlo protocol simulations."""


@simulate.command(name="pa")
@click.option("--dist", "dist_path", required=True, help="Source distribution JSON.")
@_family_options("fullrandom")
@_ensemble_options(samples=1000)
@out_option
def simulate_pa(dist_path, family, q, k, m, big_m, mode, samples, seed, out):
    """Hashed-source distinguishability against its bounds."""
    p = load_subdist(dist_path)
    fam = _family_from_flags(family, q, k, m, big_m, p.alphabet)
    if fam.input_alphabet.size != p.alphabet.size:
        raise InputValidationError(
            "family input size does not match the distribution"
        )
    if fam.input_alphabet != p.alphabet:
        # Toeplitz families carry digit labels; re-index the source onto them.
        p = SubDist(fam.input_alphabet, p.mass)
    est = expected_d1(p, fam, mode=mode, n_samples=samples, seed=seed)
    curve = universal_hash_d1_bound(p, fam.output_size)
    payload = {
        "expected_d1": est.value,
        "stderr": est.stderr,
        "mode": est.mode,
        "bound_universal_hash": curve.min_value,
        "bound_universal_hash_argmin_s": curve.argmin_s,
        "bound_order2": order2_d1_bound(p, fam.output_size),
    }
    if p.is_probability():
        value, omega = best_subset_lower_bound(p, fam.output_size)
        payload["lower_bound_subset_best"] = value
        payload["lower_bound_subset_omega"] = list(omega)
    _emit_json(payload, out)


@simulate.command(name="wiretap")
@click.option("--wb", "wb_path", required=True, help="Receiver channel JSON.")
@click.option("--we", "we_path", required=True, help="Eavesdropper channel JSON.")
@click.option("--M", "big_m", required=True, type=int, help="Message count.")
@click.option("--L", "big_l", required=True, type=int, help="Sacrificed size.")
@click.option("--n", default=1, show_default=True, type=int, help="Channel uses.")
@click.option("--q", type=int, help="Hash field size (default: first fit of 2, 3, 5, 7).")
@_ensemble_options(samples=200)
@out_option
def simulate_wiretap(
    wb_path, we_path, big_m, big_l, n, mode, samples, q, seed, out
):
    """Random wiretap codes: exact ensemble or sampled, with both bounds."""
    wb = load_channel(wb_path).iid_extend(n)
    we = load_channel(we_path).iid_extend(n)
    fam = fit_toeplitz(big_m, big_l, q)
    p_mix = SubDist.uniform(wb.input_alphabet)
    payload = {
        "M": big_m,
        "L": big_l,
        "n": n,
        "bound_eps_ensemble": random_coding_error_bound(wb, p_mix, big_m * big_l),
        "bound_d1_ensemble": random_coding_d1_bound(we, p_mix, big_l),
    }
    payload["bound_eps_code"] = 2.0 * payload["bound_eps_ensemble"]
    payload["bound_d1_code"] = 2.0 * payload["bound_d1_ensemble"]
    eps, d1, chosen = wiretap_ensemble(p_mix, big_m, big_l, fam, wb, we, mode, samples, seed)
    payload.update({"eps_b": eps.value, "d1": d1.value, "mode": mode})
    if chosen is None:
        payload.update({"eps_stderr": eps.stderr, "d1_stderr": d1.stderr})
    else:
        payload.update({"selected_eps": chosen.eps, "selected_d1": chosen.d1})
    _emit_json(payload, out)


@cli.command(name="intrinsic")
@click.option("--dist", "dist_path", required=True, help="Base distribution JSON.")
@click.option("--n", "n_uses", required=True, type=int, help="Extension power.")
@click.option("--M", "big_m", required=True, type=int, help="Output size.")
@out_option
def intrinsic_cmd(dist_path, n_uses, big_m, out):
    """Source-specialized map: exact distance, guarantee, and floor."""
    p = load_subdist(dist_path)
    smap = intr.build_specialized(p, n_uses, big_m)
    payload = {
        "n": n_uses,
        "M": big_m,
        "d1_exact": intr.specialized_map_d1(p, smap),
        "bound_construction": smap.d1_bound()["bound"],
        "lower_bound_heavy_mass": smap.heavy_mass_floor(),
        "partition_summary": smap.partition_summary(),
        "cells_assigned": smap.cells_assigned(),
    }
    _emit_json(payload, out)


@cli.command(name="distill")
@click.option("--pab", "pab_path", required=True, help="P(A,B) joint JSON.")
@click.option("--pae", "pae_path", required=True, help="P(A,E) joint JSON.")
@click.option("--M", "big_m", required=True, type=int)
@click.option("--L", "big_l", required=True, type=int)
@click.option("--module-q", default=2, show_default=True, type=int)
@click.option("--module-n", default=1, show_default=True, type=int)
@_ensemble_options(samples=200)
@out_option
def distill_cmd(
    pab_path, pae_path, big_m, big_l, module_q, module_n, mode, samples, seed, out
):
    """One-way key distillation over the reduced channels."""
    pab = load_joint(pab_path)
    pae = load_joint(pae_path)
    tri = CorrelationTriple(pab, pae, Module(module_q, module_n))
    _emit_json(run_distillation(tri, big_m, big_l, mode=mode, n_samples=samples, seed=seed), out)


def main():
    # What the imports built lives until exit: keep it out of every
    # collection, the one at exit included.
    gc.freeze()
    cli()


if __name__ == "__main__":
    main()
