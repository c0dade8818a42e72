"""Answers of every benchmark pool entry, computed in one process.

``pool_answers.py SRC OUT.json`` runs each entry of perfbench/reference/*.json
through the benchmark's own operation with the sfwmsim of SRC/src, writes
every entry's answers and check_answers mismatches to OUT.json, and prints,
per workload and column (numeric, cw), the smallest relative margin of the
quadrature-error check and the entry that holds it (a margin of 0 fails on
any rounding change), beside the CPU seconds the workload's operations took
in this process, and then every column whose margin is below 1e-3, with its
entry: the whole set of columns that a change moving their bits may fail.
For the contour it prints the largest deviations ``check_answers`` bounds,
each with its entry: the relative one of the pump wavelengths and signal
detunings (against 1e-9; the detunings sit at the root finder's rounding
floor) and the absolute one of the angles.  That
CPU figure is a first size of a gain from one process, without repeats or
interleaving: it is not BENCH evidence.  What the operations write to
standard error (the contour CLI's config summary) is discarded.
``--workload NAME`` (repeatable) runs only the pools of the named workloads,
e.g. ``--workload contour_cli`` for a contour-only check; two files written
with the same filter compare as any two files do.
``pool_answers.py --compare A.json B.json`` prints each field that differs
between two such files, with its relative size where both are numbers, and
exits with status 1 if any field differs (0 if none does).
"""
import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads as wl  # noqa: E402


# requested quadrature error of each column, as workloads.check_answers has it
QUAD_TOL = {"numeric": 1e-3, "cw": 1e-6}
# check_answers' bounds of a contour entry: relative on lambda_p_um and
# delta_s, absolute [deg] on theta
CONTOUR_TOL = {"lambda_p_um/delta_s": wl.REL_TOL["frequency"],
               "theta": wl.THETA_ABS_TOL_DEG}
# quadrature margins below this are listed one by one
MARGIN_FLOOR = 1e-3


def quadrature_margins(answers, ref):
    """{column: margin} of the quadrature-error checks of one entry.

    ``check_answers`` allows an achieved error up to the larger of the
    requested error and the reference's achieved one; the margin is what is
    left of that allowance, relative to it (negative when the check fails).
    A column that raised on either side, or that the entry lacks, has none.
    """
    margins = {}
    for name, qtol in QUAD_TOL.items():
        col, rcol = answers.get(name), ref.get(name)
        if col is None or rcol is None or "error" in col or "error" in rcol:
            continue
        allowed = max(qtol, wl._achieved(rcol))
        margins[name] = (allowed - wl._achieved(col)) / allowed
    return margins


def all_margins(rows):
    """{workload: [(margin, column, entry), ...]} of every quadrature margin,
    smallest first (ties in row order).

    ``rows`` holds (workload, entry, answers, reference answers); a workload
    without such a column maps to [].
    """
    found = {}
    for workload, entry, answers, ref in rows:
        found.setdefault(workload, []).extend(
            (m, name, entry)
            for name, m in quadrature_margins(answers, ref).items())
    return {workload: sorted(margins, key=lambda t: t[0])
            for workload, margins in found.items()}


def smallest_margins(found):
    """{workload: {column: (margin, entry)}} of the smallest margins of
    ``all_margins``' result ``found``.

    Each column has its own minimum, so a column at margin 0 does not hide how
    close the other one comes.
    """
    return {workload: {name: (m, entry)
                       for m, name, entry in reversed(margins)}
            for workload, margins in found.items()}


def low_margins(found):
    """{workload: [(margin, column, entry), ...]} of every margin of
    ``all_margins``' result ``found`` below MARGIN_FLOOR, smallest first; a
    workload with none is absent."""
    return {workload: [t for t in margins if t[0] < MARGIN_FLOOR]
            for workload, margins in found.items()
            if margins and margins[0][0] < MARGIN_FLOOR}


def contour_deviations(answers, ref):
    """{CONTOUR_TOL key: largest deviation} of one contour entry.

    The relative deviation of the pump wavelengths and signal detunings and
    the absolute one of the angles [deg], as ``check_answers`` measures
    them; {} where the point counts differ (or the reference has none) and
    no value is compared.
    """
    if "points" not in ref or answers.get("points") != ref["points"]:
        return {}
    rel = [abs(a - r) / abs(r) if r else (0.0 if a == r else math.inf)
           for key in ("lambda_p_um", "delta_s")
           for a, r in zip(answers[key], ref[key])]
    return {"lambda_p_um/delta_s": max(rel, default=0.0),
            "theta": max((abs(a - r) for a, r in
                          zip(answers["theta"], ref["theta"])), default=0.0)}


def largest_contour_deviations(rows):
    """{CONTOUR_TOL key: (deviation, entry)} over the contour rows of
    ``rows`` (as ``all_margins`` takes them)."""
    best = {}
    for workload, entry, answers, ref in rows:
        if workload != "contour_cli":
            continue
        for key, dev in contour_deviations(answers, ref).items():
            if dev > best.get(key, (-1.0,))[0]:
                best[key] = (dev, entry)
    return best


def summary(margins, cpu, contour=None, low=None):
    """One line per workload of ``cpu``: smallest margins and CPU seconds.

    ``margins`` is ``smallest_margins``' result; ``cpu`` maps a workload to
    the in-process CPU seconds of its operations; ``contour`` is
    ``largest_contour_deviations``' result, printed on the contour's line.
    ``low`` is ``low_margins``' result: a workload with margins in it gets
    a second line that lists them.
    """
    lines = []
    for workload, seconds in cpu.items():
        columns = margins.get(workload, {})
        check = ", ".join(f"{name} {columns[name][0]:.3g} ({columns[name][1]})"
                          for name in QUAD_TOL if name in columns)
        check = (f"smallest quadrature_error margin {check}" if check
                 else "no quadrature_error check")
        if workload == "contour_cli" and contour:
            check += "; largest deviation " + ", ".join(
                f"{key} {contour[key][0]:.3g} ({contour[key][1]}) "
                f"against {tol:g}" for key, tol in CONTOUR_TOL.items()
                if key in contour)
        lines.append(f"{workload}: {check}; in-process CPU {seconds:.2f} s "
                     "(not BENCH evidence)")
        if low and low.get(workload):
            lines.append(
                f"{workload}: {len(low[workload])} quadrature_error margins "
                f"below {MARGIN_FLOOR:g}: " + ", ".join(
                    f"{name} {m:.3g} ({entry})"
                    for m, name, entry in low[workload]))
    return lines


def run_pool(src, out, workloads=None):
    """Answers of the pools of ``workloads`` (all if None) into ``out``."""
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    import sfwmsim
    import sfwmsim.cli  # noqa: F401  (the contour operation calls it)
    result, rows, cpu = {}, [], {}
    with tempfile.TemporaryDirectory() as work:
        for workload in workloads or wl.WORKLOADS:
            op = wl.make_op(workload, sfwmsim, work, workload)
            cpu[workload] = 0.0
            for entry in wl.load_reference(workload)["entries"]:
                inp = wl.build_input(workload, sfwmsim, entry["input"])
                start = time.process_time()
                # the contour operation runs the CLI, whose config summary
                # would bury this report
                with contextlib.redirect_stderr(io.StringIO()):
                    answers = op(inp)
                cpu[workload] += time.process_time() - start
                key = f"{workload}/{entry['id']}"
                result[key] = {
                    "answers": answers,
                    "bad": wl.check_answers(workload, answers, entry["answers"])}
                rows.append((workload, key, answers, entry["answers"]))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    bad = sum(bool(r["bad"]) for r in result.values())
    found = all_margins(rows)
    for line in summary(smallest_margins(found), cpu,
                        largest_contour_deviations(rows), low_margins(found)):
        print(line)
    print(f"{len(result)} entries, {bad} failing check_answers")


def leaves(value, path=""):
    """(path, value) of every scalar inside nested dicts and lists."""
    if not isinstance(value, (dict, list)):
        return [(path, value)]
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [leaf for key, item in items
            for leaf in leaves(item, f"{path}/{key}" if path else str(key))]


def _fields(path):
    with open(path, "rb") as fh:
        return dict(leaves(json.load(fh)))


def compare(*paths):
    """Print the fields that differ between two answer files; return their count."""
    a, b = (_fields(p) for p in paths)
    keys = sorted(a.keys() | b.keys())
    diffs = [k for k in keys if a.get(k) != b.get(k)]
    for k in diffs:
        x, y = a.get(k), b.get(k)
        rel = (f"  rel {abs(y - x) / abs(x):.3g}" if x and
               all(type(v) in (int, float) for v in (x, y)) else "")
        print(f"{k}: {x!r} -> {y!r}{rel}")
    print(f"{len(diffs)} of {len(keys)} fields differ")
    return len(diffs)


def main(argv):
    """Run the pools (``SRC OUT.json``) or compare two files; exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare two answer files A.json B.json")
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS,
                        help="run only this workload's pool (repeatable)")
    parser.add_argument("paths", nargs=2, metavar="PATH",
                        help="SRC OUT.json, or A.json B.json with --compare")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.paths) else 0
    run_pool(*args.paths, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
