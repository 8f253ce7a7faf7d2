"""Outside-in span tracer for spinqpt, and the per-layer metrics it yields.

spinqpt's modules bind each other's functions by ``from ... import`` at
import time, so a wrapper set only on the defining module would see
nothing.  ``Tracer.install`` therefore replaces each traced function in
every ``spinqpt`` module namespace that holds it, and patches
``HamiltonianAction.__init__``/``__call__`` on the class.  Nothing under
``src/`` changes.

Each call becomes one span: name, parent span, start, end, and tags
(model family, size, dimension, ...) read from the arguments and the
result.  Self time is a span's duration minus the durations of its
direct children; spans are strictly nested because the benchmark runs
one thread.
"""

import functools
import importlib
import sys
import time


def replace_everywhere(original, replacement, package="spinqpt"):
    """Rebind ``original`` to ``replacement`` in every module of ``package``."""
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class SweepTally:
    """Counts sweep points attempted and flagged.

    Installed on untraced runs too: it wraps one call per sweep, and the
    flagged points are otherwise invisible in the classify and scaling
    outputs.
    """

    def __init__(self):
        self.points = 0
        self.flagged = 0

    def install(self):
        analysis = importlib.import_module("spinqpt.analysis")
        original = getattr(analysis, "sweep", None)
        if original is None:
            return ["spinqpt.analysis.sweep"]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.points += len(result.points)
            self.flagged += len(result.flagged)
            return result

        replace_everywhere(original, counted)
        return []


def _basis(basis):
    return {"size": basis.n_sites, "dim": basis.dimension, "sz": basis.sz_twice}


def _operator(action):
    return {"family": action.model.family, **_basis(action.basis)}


def _row(sweep_result):
    grid = sweep_result.grid_spec
    return f"{sweep_result.config.family} {grid.name}:{grid.start:g}:{grid.stop:g}"


def _solution(sol):
    return {"dim": sol.vectors.shape[0],
            "resid": float(max(sol.residuals, default=0.0)),
            "restarts": sol.meta.get("restarts", 0)}


# (module, attribute path, span name, tags(args, result) -> dict)
TARGETS = (
    ("spinqpt.lattice", "enumerate_sector", "lattice.enumerate",
     lambda a, r: _basis(r)),
    ("spinqpt.models", "HamiltonianAction.__init__", "models.build",
     lambda a, r: _operator(a[0])),
    ("spinqpt.models", "HamiltonianAction.__call__", "models.matvec",
     lambda a, r: {**_operator(a[0]), "cols": r.shape[1] if r.ndim == 2 else 1}),
    ("spinqpt.models", "hamiltonian_dense", "models.dense",
     lambda a, r: {"family": a[0].family, **_basis(a[1])}),
    ("spinqpt.eigensolver", "dense_spectrum", "eigensolver.dense",
     lambda a, r: _solution(r)),
    ("spinqpt.eigensolver", "lanczos_lowest_k", "eigensolver.lanczos",
     lambda a, r: _solution(r)),
    ("spinqpt.observables", "label_state", "observables.label",
     lambda a, r: _basis(a[0])),
    ("spinqpt.observables", "two_site_rdm", "observables.rdm",
     lambda a, r: _basis(a[0])),
    ("spinqpt.observables", "sum_rule_residual", "observables.sumrule",
     lambda a, r: {"family": a[0].family, "size": a[1].n_sites}),
    ("spinqpt.observables", "rearranged_sum_rule", "observables.sumrule",
     lambda a, r: {"family": a[0].family, "size": a[1].n_sites}),
    ("spinqpt.entanglement", "wootters_concurrence", "entanglement.wootters",
     lambda a, r: {}),
    ("spinqpt.analysis", "solve_levels", "analysis.solve",
     lambda a, r: {"family": a[0].family, **_basis(r[1])}),
    ("spinqpt.analysis", "sweep", "analysis.sweep",
     lambda a, r: {"row": _row(r)}),
    ("spinqpt.analysis", "detect_crossings", "analysis.crossings",
     lambda a, r: {"row": _row(a[0]), "events": len(r)}),
    ("spinqpt.analysis", "classify", "analysis.classify", lambda a, r: {}),
    ("spinqpt.analysis", "scaling_study", "analysis.scaling",
     lambda a, r: {}),
    ("spinqpt.cli", "make_envelope", "cli.emit", lambda a, r: {}),
    ("spinqpt.cli", "emit_json", "cli.emit", lambda a, r: {}),
    ("spinqpt.cli", "emit_csv", "cli.emit", lambda a, r: {}),
    ("spinqpt.cli", "run", "cli.run", lambda a, r: {}),
)

NAME, PARENT, START, END, TAGS = range(5)


class Tracer:
    """Records spans in memory; ``summary`` turns them into metrics."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.missing = []
        self.tag_errors = 0
        self._stack = []

    def install(self):
        for module_name, path, span_name, tags in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(original, span_name, tags)
            if outer:
                setattr(owner, attr, wrapped)
            else:
                replace_everywhere(original, wrapped)
        return self

    def _wrap(self, fn, span_name, tags):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, stack[-1] if stack else -1, clock(), 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            try:
                span[TAGS] = tags(args, result)
            except Exception:  # a renamed field must not stop the run
                self.tag_errors += 1
            return result

        return traced

    def summary(self, wall_s):
        """Per-layer metrics, all but ``trace.overhead_s``, and report lines."""
        spans = self.spans
        self_s = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                self_s[s[PARENT]] -= s[END] - s[START]

        def ancestor(i, names):
            i = spans[i][PARENT]
            while i >= 0 and spans[i][NAME] not in names:
                i = spans[i][PARENT]
            return i

        calls, busy = {}, {}
        for s, t in zip(spans, self_s):
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            busy[s[NAME]] = busy.get(s[NAME], 0.0) + t

        def of(name):
            return [i for i, s in enumerate(spans) if s[NAME] == name]

        # a solve under detect_crossings refines a crossing; one under
        # sweep is a grid point; per_row maps a sweep to [grid, refine]
        per_row = {}
        for i in of("analysis.solve"):
            parent = ancestor(i, ("analysis.sweep", "analysis.crossings"))
            if parent >= 0:
                counts = per_row.setdefault(spans[parent][TAGS].get("row", "?"), [0, 0])
                counts[spans[parent][NAME] == "analysis.crossings"] += 1
        sweep_solves = sum(c[0] for c in per_row.values())
        refine_solves = sum(c[1] for c in per_row.values())
        events = sum(spans[i][TAGS].get("events", 0) for i in of("analysis.crossings"))
        eig = of("eigensolver.dense") + of("eigensolver.lanczos")
        matvecs = of("models.matvec")
        rows = sum(spans[i][TAGS].get("dim", 0) * spans[i][TAGS].get("cols", 1)
                   for i in matvecs)

        def count(name):
            return calls.get(name, 0)

        def secs(name):
            return busy.get(name, 0.0)

        metrics = {
            "lattice.enumerate_calls": count("lattice.enumerate"),
            "lattice.enumerate_s": secs("lattice.enumerate"),
            "models.build_calls": count("models.build"),
            "models.build_s": secs("models.build"),
            "models.dense_calls": count("models.dense"),
            "models.dense_s": secs("models.dense"),
            "models.matvec_calls": count("models.matvec"),
            "models.matvec_s": secs("models.matvec"),
            "models.matvec_ns_per_row": 1e9 * secs("models.matvec") / rows if rows else 0.0,
            "eigensolver.dense_calls": count("eigensolver.dense"),
            "eigensolver.dense_s": secs("eigensolver.dense"),
            "eigensolver.dense_dim_max": max(
                (spans[i][TAGS].get("dim", 0) for i in of("eigensolver.dense")), default=0),
            "eigensolver.lanczos_calls": count("eigensolver.lanczos"),
            "eigensolver.lanczos_s": secs("eigensolver.lanczos"),
            "eigensolver.lanczos_matvecs": sum(
                1 for i in matvecs if spans[i][PARENT] >= 0
                and spans[spans[i][PARENT]][NAME] == "eigensolver.lanczos"),
            "eigensolver.lanczos_restarts": sum(
                spans[i][TAGS].get("restarts", 0) for i in of("eigensolver.lanczos")),
            "eigensolver.residual_max": max(
                (spans[i][TAGS].get("resid", 0.0) for i in eig), default=0.0),
            "observables.label_calls": count("observables.label"),
            "observables.label_s": secs("observables.label"),
            "observables.rdm_calls": count("observables.rdm"),
            "observables.rdm_s": secs("observables.rdm"),
            "entanglement.wootters_calls": count("entanglement.wootters"),
            "entanglement.wootters_s": secs("entanglement.wootters"),
            "observables.sumrule_s": secs("observables.sumrule"),
            "observables.sumrule_dense_calls": sum(
                1 for i in of("eigensolver.dense")
                if ancestor(i, ("observables.sumrule",)) >= 0),
            "analysis.sweep_solves": sweep_solves,
            "analysis.refine_solves": refine_solves,
            "analysis.refine_share": (refine_solves / (sweep_solves + refine_solves)
                                      if refine_solves else 0.0),
            "analysis.crossing_events": events,
            "analysis.solves_per_event": refine_solves / events if events else 0.0,
            "analysis.solve_s": secs("analysis.solve"),
            "analysis.crossings_s": secs("analysis.crossings"),
            "analysis.classify_s": secs("analysis.classify"),
            "cli.emit_s": secs("cli.emit"),
            "cli.self_s": secs("cli.run"),
        }
        return metrics, self._report(busy, calls, per_row, wall_s)

    def _report(self, busy, calls, per_row, wall_s):
        lines = [f"traced wall {wall_s:.3f} s, {len(self.spans)} spans; "
                 "self time by layer:"]
        for name, t in sorted(busy.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:24s} {t:9.4f} s {100 * t / wall_s:5.1f}%  "
                         f"{calls[name]} calls")
        lines.append(f"  {'(untraced glue)':24s} {wall_s - sum(busy.values()):9.4f} s")
        hv = [s[END] - s[START] for s in self.spans if s[NAME] == "models.matvec"
              and s[TAGS].get("size") == 16 and s[TAGS].get("sz") == 0
              and s[TAGS].get("cols") == 1]
        if hv:
            lines.append(f"H.v at N = 16, Sz = 0: {1e3 * sum(hv) / len(hv):.3f} ms "
                         f"per call over {len(hv)} calls")
        for row, (grid_n, refine_n) in per_row.items():
            lines.append(f"solves for {row}: {grid_n} sweep, {refine_n} refinement")
        if self.tag_errors:
            lines.append(f"span tags that could not be read: {self.tag_errors}")
        return lines
