"""Spans around calls into the program's layers, recorded from outside.

The tracer wraps public functions of the `secexp` modules in place.  A
function imported elsewhere with `from .x import y` is a second name for the
same object, so every `secexp.*` module attribute bound to the original is
replaced.  Methods are wrapped on the classes that define them.

Each call to a span target appends one span (name, start, end, parent) to
lists kept in memory; `write` saves them, with the job each belongs to, at
the end.  A span's self time is its duration minus the durations of its
direct children.  The wrappers cost about a microsecond per span, most of it
charged to the caller, so `calibrate` measures that cost on a probe and
`self_times` takes it back out of every span and its parent.

`gf.Module.add_idx`/`sub_idx` and `sample_seed` are hotter and cheaper
than a span can measure honestly; they record a call count only.  The time
of `_projected_divergence_search` is summed without a span, so that it stays
part of `divergence_exponent`'s self time.  Targets missing from the program
are listed in `Tracer.missing`, which fails the traced run; `layer_metrics`
turns the results of a traced and an untraced pass into the metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (span or counter name, module, attribute path, kind)
#   span      -- one span per call
#   optimizer -- a span that also counts objective points (maximize_on_interval)
#   gen       -- a generator: one span per `next`, counting the items yielded
#   count     -- a call count, no span
#   timer     -- inclusive seconds only, no span; the time stays in the parent
# An attribute path `Cls+.meth` wraps `meth` on Cls and on every subclass of
# Cls that defines its own `meth`.
TARGETS = (
    ("dists.renyi_tilde", "secexp.dists", "renyi_tilde", "span"),
    ("dists.tilt", "secexp.dists", "tilt", "span"),
    ("dists.strings_by_type", "secexp.dists", "strings_by_type", "span"),
    ("dists.iid_extend", "secexp.dists", "iid_extend", "span"),
    ("exponents.maximize_on_interval", "secexp.exponents", "maximize_on_interval", "optimizer"),
    ("exponents.divergence_exponent", "secexp.exponents", "divergence_exponent", "span"),
    ("exponents.projected_search", "secexp.exponents", "_projected_divergence_search", "timer"),
    ("exponents.phi_cond", "secexp.exponents", "phi_cond", "span"),
    ("exponents.cond_renyi_tilde", "secexp.exponents", "cond_renyi_tilde", "span"),
    ("exponents.universal_hash_d1_bound", "secexp.exponents", "universal_hash_d1_bound", "span"),
    ("wiretap.phi_channel", "secexp.wiretap", "phi_channel", "span"),
    ("wiretap.psi_channel", "secexp.wiretap", "psi_channel", "span"),
    ("figures.figure_sweep", "secexp.figures", "figure_sweep", "span"),
    ("hashing.iter_maps", "secexp.hashing", "HashFamily+.iter_maps", "gen"),
    ("hashing.as_map", "secexp.hashing", "HashFamily+.as_map", "span"),
    ("hashing.sample_seed", "secexp.hashing", "HashFamily+.sample_seed", "count"),
    ("hashing.check_universal2", "secexp.hashing", "check_universal2", "span"),
    ("hashing.check_balanced", "secexp.hashing", "check_balanced", "span"),
    ("hashing.check_strongly_universal2", "secexp.hashing", "check_strongly_universal2", "span"),
    ("privacy.expected_d1", "secexp.privacy", "expected_d1", "span"),
    ("privacy.pushforward", "secexp.privacy", "pushforward", "span"),
    ("privacy.d1_hashed", "secexp.privacy", "d1_hashed", "span"),
    ("privacy.best_subset_lower_bound", "secexp.privacy", "best_subset_lower_bound", "span"),
    ("intrinsic.build_specialized", "secexp.intrinsic", "build_specialized", "span"),
    ("intrinsic.specialized_map_d1", "secexp.intrinsic", "specialized_map_d1", "span"),
    ("wiretap.wiretap_ensemble_exact", "secexp.wiretap", "wiretap_ensemble_exact", "span"),
    ("wiretap.wiretap_ensemble_mc", "secexp.wiretap", "wiretap_ensemble_mc", "span"),
    ("wiretap.random_wiretap_code", "secexp.wiretap", "random_wiretap_code", "span"),
    ("wiretap.code_from_codebook", "secexp.wiretap", "code_from_codebook", "span"),
    ("wiretap.error_prob", "secexp.wiretap", "error_prob", "span"),
    ("wiretap.eve_distinguishability", "secexp.wiretap", "eve_distinguishability", "span"),
    ("wiretap.markov_select", "secexp.wiretap", "markov_select", "span"),
    ("wiretap.Channel.iid_extend", "secexp.wiretap", "Channel.iid_extend", "span"),
    ("gf.Module.add_idx", "secexp.gf", "Module.add_idx", "count"),
    ("gf.Module.sub_idx", "secexp.gf", "Module.sub_idx", "count"),
    ("distill.channels_from_joint", "secexp.distill", "channels_from_joint", "span"),
    ("distill.run_distillation", "secexp.distill", "run_distillation", "span"),
    ("jsonio.load_subdist", "secexp.jsonio", "load_subdist", "span"),
    ("jsonio.load_joint", "secexp.jsonio", "load_joint", "span"),
    ("jsonio.load_channel", "secexp.jsonio", "load_channel", "span"),
)

# CLI commands whose job spans give `cli.<command>.self_s`.
COMMANDS = (
    "exponent", "figure", "hash_check", "simulate_pa", "simulate_wiretap",
    "intrinsic", "distill",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [("cli.import_s", "s"), ("cli.import_scipy_s", "s")]
    for name, _, _, kind in TARGETS:
        if kind == "count":
            out.append((f"{name}.calls", "count"))
        elif kind == "gen":
            out += [(f"{name}.maps", "count"), (f"{name}.self_s", "s")]
        elif kind in ("span", "optimizer"):
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("exponents.maximize_on_interval.objective_evals", "count"),
        ("exponents.maximize_on_interval.refine_won_ratio", "ratio"),
        ("exponents.divergence_exponent.projected_search_share", "ratio"),
        ("dists.strings_by_type.types", "count"),
        ("wiretap.wiretap_ensemble_exact.entries", "count"),
        ("wiretap.wiretap_ensemble_exact.nonzero_codebook_ratio", "ratio"),
        ("wiretap.markov_select.scanned", "count"),
    ]
    out += [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    out += [
        ("trace.job_s", "s"),
        ("trace.untraced_job_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.layer_coverage", "ratio"),
        ("trace.span_cost_us", "us"),
    ]
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    Span i has name id `name[i]`, clock readings `start[i]` and `end[i]`,
    and the index of its enclosing span in `parent[i]` (-1 for a root).
    Plain lists are used because appending to them is the cheapest way to
    record a span from Python.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start: list[float] = []
        self.end: list[float] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = {}
        self._cells: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self.cost = {"outside": 0.0, "inside": 0.0, "counted": 0.0}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, post=None):
        """Wrap fn so that each call records a span; post(args, kwargs,
        result) runs after the span has closed."""
        nid = self.name_id(name)
        names, parents, ends, starts = self.name, self.parent, self.end, self.start
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if post is None:
            return wrapper

        tracer = self

        @functools.wraps(fn)
        def with_post(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            try:
                post(args, kwargs, result)
            except Exception as e:  # a counter that no longer fits the program
                tracer.missing.append(f"{name}: {e!r}")
            return result

        return with_post

    def generator(self, name: str, fn):
        """Wrap a generator function: one span per `next`, items counted."""
        step = self.span(name, next)
        key = f"{name}.maps"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    tracer.add(key)
                    yield item

            return traced()

        return wrapper

    def counter(self, name: str, fn):
        cell = self._cells.setdefault(f"{name}.calls", [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timer(self, name: str, fn):
        key = f"{name}.incl_s"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(key, clock() - t0)

        return wrapper

    def maximize(self, name: str, fn):
        """Span around the 1-D optimizer that also counts objective points
        and whether the refinement beat the best grid point."""
        exponents = sys.modules["secexp.exponents"]
        default_intervals = getattr(exponents, "GRID_INTERVALS", 1024)
        tracer = self
        traced = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(objective, lo, hi, *rest, **kwargs):
            intervals = kwargs.get("intervals", rest[0] if rest else default_intervals)
            state = [0, -math.inf]  # objective points, best grid value
            counted = _counting(objective, intervals + 1, state)
            result = traced(counted, lo, hi, *rest, **kwargs)
            tracer.add(f"{name}.objective_evals", state[0])
            tracer.add(f"{name}.refine_won", float(result[1] > state[1]))
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target; records which ones the program lacks."""
        for name, module_name, path, kind in TARGETS:
            module = sys.modules.get(module_name)
            owners = self._owners(module, path)
            if not owners:
                self.missing.append(name)
                continue
            attr = path.rsplit(".", 1)[-1]
            for owner in owners:
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = self._wrap(name, kind, original)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                else:
                    self._rebind(original, wrapped)

    def _owners(self, module, path):
        if module is None:
            return []
        if "." not in path:
            return [module] if callable(getattr(module, path, None)) else []
        cls_name, attr = path.split(".")
        with_subclasses = cls_name.endswith("+")
        cls = getattr(module, cls_name.rstrip("+"), None)
        if not isinstance(cls, type):
            return []
        classes = [cls]
        if with_subclasses:
            todo = list(cls.__subclasses__())
            while todo:
                sub = todo.pop()
                classes.append(sub)
                todo.extend(sub.__subclasses__())
        return [c for c in classes if callable(vars(c).get(attr))]

    def _wrap(self, name, kind, original):
        if kind == "gen":
            return self.generator(name, original)
        if kind == "count":
            return self.counter(name, original)
        if kind == "timer":
            return self.timer(name, original)
        if kind == "optimizer":
            return self.maximize(name, original)
        hook = _POST_HOOKS.get(name)
        return self.span(name, original, hook and hook(self, name))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "secexp" or mod_name.startswith("secexp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def flush_counts(self):
        """Move the call counts of `count` targets into `counts`."""
        for key, cell in self._cells.items():
            self.counts[key] = float(cell[0])

    # -- output -----------------------------------------------------------------

    def calibrate(self, n: int = 20000, repeats: int = 5):
        """Measure what a span costs the program, so self times can be
        corrected for it: `inside` is added to the span's own duration,
        `outside` to its parent's, `counted` to the optimizer per objective
        point.  Medians of a few short probe loops."""
        clock = time.perf_counter

        def probe(x):
            return x

        def loop(fn):
            t0 = clock()
            for i in range(n):
                fn(float(i))
            return clock() - t0

        inside, total, counted = [], [], []
        for _ in range(repeats):
            probe_tracer = Tracer()
            wrapped = probe_tracer.span("probe", probe)
            plain = loop(probe)
            traced = loop(wrapped)
            spans = (math.fsum(probe_tracer.end) - math.fsum(probe_tracer.start)) / n
            inside.append(spans - plain / n)
            total.append((traced - plain) / n)
            counted.append((loop(_counting(probe, n, [0, -math.inf])) - plain) / n)
        med = lambda xs: sorted(xs)[len(xs) // 2]  # noqa: E731
        self.cost = {
            "inside": max(med(inside), 0.0),
            "outside": max(med(total) - med(inside), 0.0),
            "counted": max(med(counted), 0.0),
        }

    def write(self, path):
        """Save the spans, the job (root span) of each and the names they
        index as a numpy archive."""
        import numpy as np

        job = []
        for p in self.parent:
            job.append(len(job) if p < 0 else job[p])
        roots = {j: k for k, j in enumerate(sorted(set(job)))}
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array([roots[j] for j in job], dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def self_times(self):
        """Per span name: (calls, self seconds, inclusive seconds), with the
        calibrated cost of the spans themselves taken out."""
        import numpy as np

        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        n = len(name)
        dur = np.array(self.end) - np.array(self.start) - self.cost["inside"]
        has_parent = parent >= 0
        nested = np.bincount(parent[has_parent], weights=dur[has_parent] + self.cost["inside"],
                             minlength=n)
        children = np.bincount(parent[has_parent], minlength=n)
        own = dur - nested - children * self.cost["outside"]
        incl = own.copy()
        for i in range(n - 1, -1, -1):
            if parent[i] >= 0:
                incl[parent[i]] += incl[i]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        incl_s = np.bincount(name, weights=incl, minlength=k)
        out = {
            nm: [int(calls[i]), float(self_s[i]), float(incl_s[i])]
            for i, nm in enumerate(self.names)
        }
        opt = "exponents.maximize_on_interval"
        if opt in out:
            out[opt][1] -= self.counts.get(f"{opt}.objective_evals", 0) * self.cost["counted"]
        return out


def _counting(objective, grid_points, state):
    """objective, counting its points in state[0] and keeping the best of
    the first grid_points values in state[1]."""

    def counted(x):
        value = objective(x)
        if isinstance(value, float):
            if state[0] < grid_points and value > state[1]:
                state[1] = value
            state[0] += 1
            return value
        for v in value:  # an objective evaluated on an array of points
            if state[0] < grid_points and v > state[1]:
                state[1] = v
            state[0] += 1
        return value

    return counted


def _strings_by_type_post(tracer, name):
    def post(args, kwargs, result):
        tracer.add(f"{name}.types", len(result))

    return post


def _ensemble_exact_post(tracer, name):
    def post(args, kwargs, result):
        p, m, l, fam = args[:4]
        entries = len(result.entries)
        tracer.add(f"{name}.entries", entries)
        tracer.add(f"{name}.codebooks_nonzero", entries / fam.seed_count)
        tracer.add(f"{name}.codebooks", p.alphabet.size ** (m * l))

    return post


def _markov_select_post(tracer, name):
    def post(args, kwargs, result):
        entries = args[0].entries
        scanned = next(i for i, e in enumerate(entries) if e is result) + 1
        tracer.add(f"{name}.scanned", scanned)

    return post


_POST_HOOKS = {
    "dists.strings_by_type": _strings_by_type_post,
    "wiretap.wiretap_ensemble_exact": _ensemble_exact_post,
    "wiretap.markov_select": _markov_select_post,
}


def layer_metrics(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the results of the traced and untraced passes
    (as written by `inproc.py`).  Missing layers read 0."""
    spans = traced.get("self_times", {})
    counts = traced.get("counts", {})
    metrics = {name: (0.0, unit) for name, unit in metric_names()}

    def put(name, value):
        metrics[name] = (float(value), metrics[name][1])

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    for name, _, _, kind in TARGETS:
        calls, self_s, _ = span(name)
        if kind == "count":
            put(f"{name}.calls", counts.get(f"{name}.calls", 0))
        elif kind == "gen":
            put(f"{name}.maps", counts.get(f"{name}.maps", 0))
            put(f"{name}.self_s", self_s)
        elif kind in ("span", "optimizer"):
            put(f"{name}.calls", calls)
            put(f"{name}.self_s", self_s)

    opt = "exponents.maximize_on_interval"
    put(f"{opt}.objective_evals", counts.get(f"{opt}.objective_evals", 0))
    if span(opt)[0]:
        put(f"{opt}.refine_won_ratio", counts.get(f"{opt}.refine_won", 0) / span(opt)[0])
    div_incl = span("exponents.divergence_exponent")[2]
    if div_incl:
        put("exponents.divergence_exponent.projected_search_share",
            counts.get("exponents.projected_search.incl_s", 0.0) / div_incl)
    put("dists.strings_by_type.types", counts.get("dists.strings_by_type.types", 0))
    ens = "wiretap.wiretap_ensemble_exact"
    put(f"{ens}.entries", counts.get(f"{ens}.entries", 0))
    if counts.get(f"{ens}.codebooks"):
        put(f"{ens}.nonzero_codebook_ratio",
            counts[f"{ens}.codebooks_nonzero"] / counts[f"{ens}.codebooks"])
    put("wiretap.markov_select.scanned", counts.get("wiretap.markov_select.scanned", 0))

    command_self = command_incl = 0.0
    for command in COMMANDS:
        _, self_s, incl_s = span(f"cli.{command}")
        put(f"cli.{command}.self_s", self_s)
        command_self += self_s
        command_incl += incl_s
    job_s = sum(j["wall_s"] for j in traced.get("jobs", []))
    untraced_s = sum(j["wall_s"] for j in untraced.get("jobs", []))
    put("trace.job_s", job_s)
    put("trace.untraced_job_s", untraced_s)
    if untraced_s:
        put("trace.overhead_ratio", job_s / untraced_s)
    if command_incl:
        put("trace.layer_coverage", 1.0 - command_self / command_incl)
    cost = traced.get("span_cost", {})
    put("trace.span_cost_us", 1e6 * (cost.get("inside", 0.0) + cost.get("outside", 0.0)))
    put("cli.import_s", untraced.get("import_s", 0.0))
    return metrics
