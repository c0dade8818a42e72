"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``Recorder.install``
replaces each traced public entry point of sfwmsim with a timing wrapper,
in every sfwmsim module that bound the name at import time, and
``Recorder.restore`` puts the originals back.  Spans stay in memory as
``[name, start_ns, end_ns, parent, op, attrs]`` and are written out once,
at the end of the run.

A layer's self time is its spans' durations minus the part covered by
their child spans (see ``self_times``).  ``dispersion.self_s`` includes the
Taylor-model evaluation, which ``dispersion.taylor_k.self_s`` also reports
on its own.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
import time

import numpy as np

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Dispersion entry points that take frequencies (the "beta family").
# ``_solve_step_index`` is private but efficiency reaches it directly from
# the rotated integrand, so it is a boundary of the layer too.
_BETA_FAMILY = ("effective_index", "beta", "beta1", "beta2", "silica_index",
                "_solve_step_index")
_GAMMA_FAMILY = ("mode_profile", "effective_area", "gamma_pump", "gamma_sfwm",
                 "nonlinear_parameters")

# (module, attribute, span name)
TRACED = (
    [("sfwmsim._kernels_py", "he11_solve", "kernels.he11_solve"),
     ("sfwmsim._kernels_py", "he11_solve_seeded", "kernels.he11_solve_seeded")]
    + [("sfwmsim.dispersion", f, f"dispersion.{f.lstrip('_')}") for f in _BETA_FAMILY]
    + [("sfwmsim.dispersion", f, f"dispersion.gamma.{f}") for f in _GAMMA_FAMILY]
    + [("sfwmsim.dispersion", "find_zero_dispersion", "dispersion.find_zero_dispersion"),
       ("sfwmsim.numerics", "integrate_1d", "quad.integrate_1d"),
       ("sfwmsim.numerics", "integrate_2d", "quad.integrate_2d"),
       ("sfwmsim.numerics", "find_root", "roots.find_root"),
       ("sfwmsim.numerics", "bracket_root", "roots.bracket_root"),
       ("sfwmsim.sfwm", "phasematch_roots", "sfwm.roots_scan"),
       ("sfwmsim.sfwm", "solve_phasematch_center", "sfwm.center"),
       ("sfwmsim.phasematch", "orientation_angle", "phasematch.orientation"),
       ("sfwmsim.phasematch", "contour", "phasematch.contour"),
       ("sfwmsim.efficiency", "eta_pulsed_numeric", "efficiency.pulsed"),
       ("sfwmsim.efficiency", "eta_cw", "efficiency.cw"),
       ("sfwmsim.efficiency", "eta_closed", "efficiency.closed"),
       ("sfwmsim.efficiency", "operating_point", "efficiency.operating_point"),
       ("sfwmsim.cli", "main", "cli.main")])


def _size(x):
    return int(np.size(x))


def _is_scalar(x):
    return np.ndim(x) == 0


def _arg_attrs(name, args):
    """Work a span is asked to do, known before the call (points solved)."""
    if name.startswith("kernels."):
        return {"points": _size(args[0])}
    if _is_beta(name):
        return {"points": _size(args[0]), "scalar": _is_scalar(args[0])}
    return None


def _result_attrs(name, result):
    """Counts read from a returned result (contour points, diagnostics)."""
    if name == "phasematch.contour":
        return {"points": len(result)}
    if name in ("efficiency.pulsed", "efficiency.cw"):
        d = result.diagnostics
        integral = d["integral"]
        return {"expansions": d["expansions"],
                "rel_err": d["quadrature_error"] / abs(integral) if integral else 0.0}
    return None


class Recorder:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._patches = []      # (namespace, attribute, original)

    # -------------------------------------------------------------- spans
    def _open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.op, attrs])
        self.stack.append(idx)
        self.spans[idx][START] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter_ns()
        self.stack.pop()

    def _parent_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else ""

    def run_op(self, op_id, fn, *args):
        """Call ``fn`` as operation ``op_id`` inside a root span."""
        self.op = op_id
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # ----------------------------------------------------------- wrappers
    def _wrap(self, name, fn):
        if name.startswith("quad."):
            return self._wrap_quad(name, fn)
        if name.startswith("roots."):
            return self._wrap_roots(name, fn)
        rec = self

        def wrapper(*args, **kwargs):
            idx = rec._open(name, _arg_attrs(name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if rec.spans[idx][ATTRS] is None:
                rec.spans[idx][ATTRS] = _result_attrs(name, result)
            return result

        return wrapper

    def _integrand(self, f):
        rec = self

        def integrand(*args):
            idx = rec._open("integrand", {"nodes": _size(args[-1])})
            try:
                return f(*args)
            finally:
                rec._close(idx)

        return integrand

    def _wrap_quad(self, name, fn):
        from sfwmsim.errors import NonConvergenceError
        rec = self

        def wrapper(f, *args, **kwargs):
            # the callbacks numerics hands itself (integrate_2d's inner and
            # outer functions) are part of the quadrature layer; only the
            # caller's callback is an integrand
            if not rec._parent_name().startswith("quad."):
                f = rec._integrand(f)
            idx = rec._open(name, {})
            attrs = rec.spans[idx][ATTRS]
            try:
                result = fn(f, *args, **kwargs)
            except NonConvergenceError as exc:
                attrs["nonconverged"] = 1
                attrs["subdivisions"] = exc.subdivisions or 0
                raise
            else:
                attrs["subdivisions"] = result.subdivisions
            finally:
                rec._close(idx)
                attrs.setdefault("subdivisions", 0)
                if name == "quad.integrate_1d":
                    spec = args[2] if len(args) > 2 else kwargs.get("spec")
                    order = spec.panel_order if spec is not None else 15
                    attrs["nodes"] = order * (1 + 2 * attrs["subdivisions"])
            return result

        return wrapper

    def _wrap_roots(self, name, fn):
        rec = self

        def wrapper(f, *args, **kwargs):
            # f is counted once, by the outermost roots span
            attrs = None
            if not rec._parent_name().startswith("roots."):
                attrs = {"f_evals": 0}
                inner = f

                def f(x):
                    attrs["f_evals"] += 1
                    return inner(x)
            idx = rec._open(name, attrs)
            try:
                return fn(f, *args, **kwargs)
            finally:
                rec._close(idx)

        return wrapper

    # ------------------------------------------------------ install/restore
    def install(self):
        """Replace every traced entry point in every module that bound it."""
        import sfwmsim.cli  # noqa: F401  (loads every module that binds names)
        from sfwmsim.dispersion import TaylorDispersion
        namespaces = [m.__dict__ for name, m in sorted(sys.modules.items())
                      if name == "sfwmsim" or name.startswith("sfwmsim.")]
        for module, attr, span in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper
        original_k = TaylorDispersion.__dict__["k"]
        self._patches.append((TaylorDispersion, "k", original_k))
        setattr(TaylorDispersion, "k", self._wrap("dispersion.taylor_k", original_k))

    def restore(self):
        """Put every original back; True when each one is in place again."""
        patches, self._patches = self._patches, []
        for ns, key, original in reversed(patches):
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)
        return all((ns[key] if isinstance(ns, dict) else ns.__dict__[key]) is original
                   for ns, key, original in patches)

    def dump(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ------------------------------------------------------------- analysis

def self_times(spans):
    """Self time [ns] of each span: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _layer_of(name):
    return name.split(".", 1)[0]


def _is_beta(name):
    """Span of a beta-family dispersion entry point."""
    return name.startswith("dispersion.") and not name.startswith(
        ("dispersion.gamma.", "dispersion.taylor_k", "dispersion.find"))


def _breakdown_layer(name):
    for prefix in ("dispersion.gamma", "dispersion.taylor_k"):
        if name.startswith(prefix):
            return prefix
    return _layer_of(name)


def _top_ancestor_in_layer(spans, idx, layer):
    """Outermost span of ``layer`` in the unbroken chain of ``layer`` spans
    above ``idx`` (``idx`` itself when its parent is in another layer)."""
    while spans[idx][PARENT] >= 0 and _layer_of(spans[spans[idx][PARENT]][NAME]) == layer:
        idx = spans[idx][PARENT]
    return idx


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer metrics of a traced run (counts and times per operation)."""
    st = self_times(spans)
    per_op = 1.0 / max(n_ops, 1)

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    def self_s(pred):
        return sum(t for s, t in zip(spans, st) if pred(s[NAME])) * 1e-9 * per_op

    solve = [s for s in spans if s[NAME].startswith("kernels.")]
    outer_solve = [s for s in solve if not parent_name(s).startswith("kernels.")]
    fallback = [s for s in solve if parent_name(s) == "kernels.he11_solve_seeded"]
    solve_points = sum(s[ATTRS]["points"] for s in outer_solve)
    solve_self = self_s(lambda n: n.startswith("kernels."))

    top_disp = [s for s in spans if _is_beta(s[NAME])
                and _layer_of(parent_name(s)) != "dispersion"]
    disp_points = sum(s[ATTRS]["points"] for s in top_disp)
    # kernel points reached from a top-level beta-family call
    beta_kernel_points = sum(
        s[ATTRS]["points"] for s in outer_solve if s[PARENT] >= 0
        and _is_beta(spans[_top_ancestor_in_layer(spans, s[PARENT], "dispersion")][NAME]))

    quad1 = [s for s in spans if s[NAME] == "quad.integrate_1d"]
    integrand = [(i, s) for i, s in enumerate(spans) if s[NAME] == "integrand"]
    integrand_ids = {i for i, _ in integrand}
    integrand_nodes = sum(s[ATTRS]["nodes"] for _, s in integrand)
    integrand_points = sum(s[ATTRS]["points"] for s in outer_solve
                           if _has_ancestor(spans, s, integrand_ids))
    roots = [s for s in spans if s[NAME].startswith("roots.") and s[ATTRS]]
    eff = {k: [s for s in spans if s[NAME] == f"efficiency.{k}"
               and parent_name(s) != f"efficiency.{k}"]
           for k in ("pulsed", "cw", "closed")}
    diag = [s[ATTRS] for s in eff["pulsed"] + eff["cw"] if s[ATTRS]]
    cli_self = 0
    for i, s in enumerate(spans):
        if s[NAME] == "cli.main":
            covered = sum(c[END] - c[START] for c in spans
                          if c[PARENT] == i and c[NAME] == "phasematch.contour")
            cli_self += s[END] - s[START] - covered

    def durations(ss):
        return [(s[END] - s[START]) * 1e-9 for s in ss]

    return {
        "kernels.solve.calls": len(outer_solve) * per_op,
        "kernels.solve.points": solve_points * per_op,
        "kernels.solve.self_s": solve_self,
        "kernels.solve.us_per_point":
            solve_self / (solve_points * per_op) * 1e6 if solve_points else 0.0,
        "kernels.solve.points_per_call":
            float(_median([s[ATTRS]["points"] for s in outer_solve])),
        "kernels.solve.fallback_points":
            sum(s[ATTRS]["points"] for s in fallback) * per_op,
        "dispersion.calls": len(top_disp) * per_op,
        "dispersion.scalar_calls":
            sum(1 for s in top_disp if s[ATTRS]["scalar"]) * per_op,
        "dispersion.points": disp_points * per_op,
        "dispersion.self_s": self_s(
            lambda n: n.startswith("dispersion.") and not n.startswith("dispersion.gamma.")),
        "dispersion.solve_per_point":
            beta_kernel_points / disp_points if disp_points else 0.0,
        "dispersion.taylor_k.self_s": self_s(lambda n: n == "dispersion.taylor_k"),
        "dispersion.gamma.calls": sum(
            1 for s in spans if s[NAME].startswith("dispersion.gamma.")
            and not parent_name(s).startswith("dispersion.gamma.")) * per_op,
        "dispersion.gamma.self_s": self_s(lambda n: n.startswith("dispersion.gamma.")),
        "quad.calls": len(quad1) * per_op,
        "quad.subdivisions": sum(s[ATTRS]["subdivisions"] for s in quad1) * per_op,
        "quad.nodes": sum(s[ATTRS]["nodes"] for s in quad1) * per_op,
        "quad.self_s": self_s(lambda n: n.startswith("quad.")),
        "quad.nonconverged": sum(s[ATTRS].get("nonconverged", 0) for s in quad1) * per_op,
        "roots.calls": sum(1 for s in spans if s[NAME] == "roots.find_root") * per_op,
        "roots.f_evals": sum(s[ATTRS]["f_evals"] for s in roots) * per_op,
        "roots.self_s": self_s(lambda n: n.startswith("roots.")),
        "integrand.calls": len(integrand) * per_op,
        "integrand.self_s": self_s(lambda n: n == "integrand"),
        "integrand.solve_per_node":
            integrand_points / integrand_nodes if integrand_nodes else 0.0,
        "sfwm.roots_scan.calls":
            sum(1 for s in spans if s[NAME] == "sfwm.roots_scan") * per_op,
        "sfwm.roots_scan.self_s": self_s(lambda n: n == "sfwm.roots_scan"),
        "sfwm.center.calls": sum(1 for s in spans if s[NAME] == "sfwm.center") * per_op,
        "phasematch.orientation.calls":
            sum(1 for s in spans if s[NAME] == "phasematch.orientation") * per_op,
        "phasematch.orientation.self_s": self_s(lambda n: n == "phasematch.orientation"),
        "phasematch.contour.points": sum(
            s[ATTRS]["points"] for s in spans if s[NAME] == "phasematch.contour") * per_op,
        "efficiency.pulsed.s": _median(durations(eff["pulsed"])),
        "efficiency.cw.s": _median(durations(eff["cw"])),
        "efficiency.closed.s": _median(durations(eff["closed"])),
        "efficiency.operating_point.self_s":
            self_s(lambda n: n == "efficiency.operating_point"),
        "efficiency.expansions": sum(d["expansions"] for d in diag) * per_op,
        "efficiency.achieved_rel_err": max((d["rel_err"] for d in diag), default=0.0),
        "cli.self_s": cli_self * 1e-9 * per_op,
    }


def _has_ancestor(spans, span, ids):
    idx = span[PARENT]
    while idx >= 0:
        if idx in ids:
            return True
        idx = spans[idx][PARENT]
    return False


def counts_under(spans, root):
    """Mean work per ``root`` span: integrals, integrand calls, kernel points."""
    roots = {i for i, s in enumerate(spans) if s[NAME] == root}
    inner = [s for s in spans if _has_ancestor(spans, s, roots)]
    n = max(len(roots), 1)
    return {
        "calls": len(roots),
        "integrals": sum(s[NAME] == "quad.integrate_1d" for s in inner) / n,
        "integrand_calls": sum(s[NAME] == "integrand" for s in inner) / n,
        "kernel_points": sum(s[ATTRS]["points"] for s in inner
                             if s[NAME].startswith("kernels.")
                             and not spans[s[PARENT]][NAME].startswith("kernels.")) / n,
    }


def breakdown(spans, root=None):
    """Self-time share per layer, over all spans or those under ``root`` spans.

    Returns (total_s, {layer: share}).  Layers: kernels, dispersion,
    dispersion.gamma, dispersion.taylor_k, quad, roots, integrand, sfwm,
    phasematch, efficiency, cli, op.
    """
    st = self_times(spans)
    roots = {i for i, s in enumerate(spans) if s[NAME] == root} if root else None
    shares, total = {}, 0
    for i, (s, t) in enumerate(zip(spans, st)):
        if roots is not None and i not in roots and not _has_ancestor(spans, s, roots):
            continue
        layer = _breakdown_layer(s[NAME])
        shares[layer] = shares.get(layer, 0) + t
        total += t
    return total * 1e-9, {k: v / total for k, v in shares.items()} if total else {}
