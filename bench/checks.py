"""Output checks for benchmark jobs.

Every check is a property that holds for every valid input, so a failure
means the program is wrong, not that the seed was unlucky:

* exact PA: expected_d1 <= the universal-hashing bound, and for the fully
  random family the subset lower bound <= expected_d1;
* `hash check` on Toeplitz: universal_2 and balanced pass;
* the divergence exponent equals its twin, the universal form at the same
  rate, to 1e-6 (the rates lie between the critical rate and H(P));
  figure 4 keeps e_phi >= e_psi >= psi_pinsker;
* the specialized map lies between the heavy-mass floor and its guarantee;
* wiretap and distill ensembles stay within their ensemble bounds, and the
  selected code within twice both averages;
* every ensemble number with a twin agrees with the twin's estimate of it
  within 6 combined standard errors: exact PA, wiretap and distill against
  a Monte Carlo twin, Monte Carlo against the exact value where it is
  enumerable and against an independent Monte Carlo run where it is not.

A job whose twin is missing or failed fails.  On the reference seed every
number must also match the outputs recorded in `reference/`, to 1e-9
relative.
"""

from __future__ import annotations

import csv
import io
import json
import math

SLACK = 1e-12
PAIR_TOL = 1e-6
MC_SIGMAS = 6.0
REF_RTOL = 1e-9
REF_ATOL = 1e-15  # so that a recorded 0.0 tolerates rounding noise


def parse(text: str, fmt: str):
    """A job's output as JSON data; CSV becomes {"header", "rows"}."""
    if fmt == "json":
        return json.loads(text)
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = _number(value)
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return {
        "header": header,
        "rows": [[_number(x), curve, _number(v)] for x, curve, v in rows[1:]],
    }


def _number(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _le(a, b) -> bool:
    """a <= b up to rounding."""
    return _finite(a, b) and a <= b + SLACK * max(1.0, abs(b))


def check(job, out, twin=None) -> list[str]:
    """Failures of one job's parsed output; twin is its counterpart's output."""
    if job.twin is not None and twin is None:
        return ["twin (check counterpart) missing or failed"]
    return _CHECKS[job.check](job, out, twin)


def _figure(job, out, twin):
    points = int(job.argv[job.argv.index("--points") + 1])
    if len(out["rows"]) != 3 * points:
        return [f"{len(out['rows'])} rows for {points} points"]
    bad = [r for r in out["rows"] if r[2] is not None and not _finite(r[2])]
    return [f"non-finite value in {bad[0]}"] if bad else []


def _figure4(job, out, twin):
    fails = _figure(job, out, twin)
    by_x = {}
    for x, curve, value in out["rows"]:
        by_x.setdefault(x, {})[curve] = value
    for x, row in by_x.items():
        if not (_le(row["e_psi"], row["e_phi"]) and _le(row["psi_pinsker"], row["e_psi"])):
            fails.append(f"ordering e_phi >= e_psi >= psi_pinsker broken at R={x}")
    return fails


def _exponent(job, out, twin):
    value = out["value"]
    if not (_finite(value) and value >= 0.0):
        return [f"exponent value {value!r}"]
    if twin is not None and not (_finite(twin["value"]) and
                                 abs(value - twin["value"]) <= PAIR_TOL):
        return [f"{out['form']} {value} differs from {twin['form']} {twin['value']}"]
    return []


def _cond(job, out, twin):
    phi, pinsker = out["phi_form"]["value"], out["pinsker_form"]["value"]
    if not _le(pinsker, phi):
        return [f"pinsker form {pinsker} above phi form {phi} below H(A|E)"]
    return []


def _agree(name, out, se_key, twin, twin_se_key):
    """out[name] and twin[name] agree within MC_SIGMAS combined standard
    errors; an exact value has none."""
    a, b = out[name], twin[name]
    a_se, b_se = out.get(se_key) or 0.0, twin.get(twin_se_key) or 0.0
    if not (_finite(a, a_se, b, b_se) and a_se >= 0.0 and b_se >= 0.0):
        return [f"{name} {a} +- {a_se} or twin {b} +- {b_se} not finite"]
    if abs(a - b) > MC_SIGMAS * math.hypot(a_se, b_se) + SLACK:
        return [f"{name} {a} +- {a_se} and twin {b} +- {b_se} differ by more "
                f"than {MC_SIGMAS:g} standard errors"]
    return []


def _pa(job, out, twin):
    fails = []
    d1, bound = out["expected_d1"], out["bound_universal_hash"]
    if not (_finite(d1) and d1 >= 0.0 and _le(d1, bound)):
        fails.append(f"expected_d1 {d1} above bound_universal_hash {bound}")
    if job.info.get("fullrandom"):
        low = out["lower_bound_subset_best"]
        if not _le(low, d1):
            fails.append(f"subset lower bound {low} above expected_d1 {d1}")
    return fails + _agree("expected_d1", out, "stderr", twin, "stderr")


def _pa_mc(job, out, twin):
    return _agree("expected_d1", out, "stderr", twin, "stderr")


def _conditions(*names):
    def fn(job, out, twin):
        return [f"{n} {out[n]}" for n in names if out[n] != "pass"]

    return fn


def _intrinsic(job, out, twin):
    d1, low, high = out["d1_exact"], out["lower_bound_heavy_mass"], out["bound_construction"]
    if not (_le(low, d1) and _le(d1, high)):
        return [f"d1_exact {d1} outside [{low}, {high}]"]
    return []


def _ensemble_agree(eps_key, out, twin):
    return (_agree(eps_key, out, "eps_stderr", twin, "eps_stderr")
            + _agree("d1", out, "d1_stderr", twin, "d1_stderr"))


def _ensemble(eps_key):
    def fn(job, out, twin):
        eps, d1 = out[eps_key], out["d1"]
        fails = []
        if not _le(eps, out["bound_eps_ensemble"]):
            fails.append(f"{eps_key} {eps} above bound {out['bound_eps_ensemble']}")
        if not _le(d1, out["bound_d1_ensemble"]):
            fails.append(f"d1 {d1} above bound {out['bound_d1_ensemble']}")
        if not (_le(out["selected_eps"], 2.0 * eps) and _le(out["selected_d1"], 2.0 * d1)):
            fails.append("selected code not within twice both averages")
        return fails + _ensemble_agree(eps_key, out, twin)

    return fn


def _ensemble_mc(eps_key):
    return lambda job, out, twin: _ensemble_agree(eps_key, out, twin)


_CHECKS = {
    "figure": _figure,
    "figure4": _figure4,
    "exponent": _exponent,
    "cond": _cond,
    "pa": _pa,
    "hash_toeplitz": _conditions("condition1", "condition2"),
    "intrinsic": _intrinsic,
    "wiretap": _ensemble("eps_b"),
    "distill": _ensemble("eps"),
    "pa_mc": _pa_mc,
    "wiretap_mc": _ensemble_mc("eps_b"),
    "distill_mc": _ensemble_mc("eps"),
}


def compare_reference(ref, out, path="") -> list[str]:
    """Numbers of the recorded output that the new output does not match."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        fails = []
        for key, value in ref.items():
            if key not in out:
                fails.append(f"{path}/{key}: missing")
            else:
                fails += compare_reference(value, out[key], f"{path}/{key}")
        return fails
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        fails = []
        for i, (a, b) in enumerate(zip(ref, out)):
            fails += compare_reference(a, b, f"{path}/{i}")
        return fails
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if not (isinstance(out, (int, float)) and
                abs(out - ref) <= REF_RTOL * max(abs(ref), abs(out)) + REF_ATOL):
            return [f"{path}: {out!r} != recorded {ref!r}"]
    return []
