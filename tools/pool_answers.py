"""Answers of every benchmark pool entry, computed in one process.

``pool_answers.py SRC OUT.json`` runs each entry of perfbench/reference/*.json
through the benchmark's own operation with the sfwmsim of SRC/src, writes
every entry's answers and check_answers mismatches to OUT.json, and prints,
per workload, the smallest relative margin of the quadrature-error check and
the entry that holds it (a margin of 0 fails on any rounding change).
``pool_answers.py --compare A.json B.json`` prints each field that differs
between two such files, with its relative size where both are numbers, and
exits with status 1 if any field differs (0 if none does).
"""
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads as wl  # noqa: E402


# requested quadrature error of each column, as workloads.check_answers has it
QUAD_TOL = {"numeric": 1e-3, "cw": 1e-6}


def quadrature_margin(answers, ref):
    """(margin, column) of the tightest quadrature-error check of one entry.

    ``check_answers`` allows an achieved error up to the larger of the
    requested error and the reference's achieved one; the margin is what is
    left of that allowance, relative to it (negative when the check fails).
    None for an entry without such a column.
    """
    margins = []
    for name, qtol in QUAD_TOL.items():
        col, rcol = answers.get(name), ref.get(name)
        if col is None or rcol is None or "error" in col or "error" in rcol:
            continue
        allowed = max(qtol, wl._achieved(rcol))
        margins.append(((allowed - wl._achieved(col)) / allowed, name))
    return min(margins, default=None)


def smallest_margins(rows):
    """{workload: (margin, entry, column)} of the smallest margin.

    ``rows`` holds (workload, entry, answers, reference answers).
    """
    best = {}
    for workload, entry, answers, ref in rows:
        m = quadrature_margin(answers, ref)
        if m is not None and m[0] < best.get(workload, (math.inf,))[0]:
            best[workload] = (m[0], entry, m[1])
    return best


def run_pool(src, out):
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    import sfwmsim
    import sfwmsim.cli  # noqa: F401  (the contour operation calls it)
    result, rows = {}, []
    with tempfile.TemporaryDirectory() as work:
        for workload in wl.WORKLOADS:
            op = wl.make_op(workload, sfwmsim, work, workload)
            for entry in wl.load_reference(workload)["entries"]:
                answers = op(wl.build_input(workload, sfwmsim, entry["input"]))
                key = f"{workload}/{entry['id']}"
                result[key] = {
                    "answers": answers,
                    "bad": wl.check_answers(workload, answers, entry["answers"])}
                rows.append((workload, key, answers, entry["answers"]))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    bad = sum(bool(r["bad"]) for r in result.values())
    for workload, (margin, key, column) in smallest_margins(rows).items():
        print(f"{workload}: smallest quadrature_error margin {margin:.3g} "
              f"({key} {column})")
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


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(1 if compare(*sys.argv[-2:]) else 0)
    run_pool(*sys.argv[-2:])
