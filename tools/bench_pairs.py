"""Interleaved parent/change benchmark pairs, summarised as a BENCH file.

``bench_pairs.py PARENT CHANGE --workload W --seeds 101-110 --pr N``
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each of the two checkouts per seed, T being the ``run_seconds`` of the
change's ``BENCHMARK.json``, alternating which goes first (the
parent on even pair index), and writes ``BENCH_<N>_<W>.json`` in the
current directory: per end-to-end metric of ``BENCHMARK.json`` the runs,
median, quartiles and IQR of each side, the pairs the change wins, the
ratio of the medians and whether it is within the metric's bound; the
answer check of each side; and, with ``--claim METRIC``, whether the claim
is met (the change wins at least nine pairs in ten, and its median differs
from the parent's by more than the parent's IQR).

``--ops N`` also runs ``perfbench/worker.py --ops N`` once per seed in each
checkout, interleaved the same way, and records the peak RSS of each: a run
of fixed length completes more operations on a faster side, and the worker
keeps every operation's answers, so only equal op counts compare memory.

``--seeds`` takes seeds and inclusive ranges (``2501-2505 2508``).  Each
run takes the benchmark's run length plus worker set-up; the runs are
sequential, one worker at a time.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
# at least this share of pairs must go the change's way for a claimed gain
CLAIM_SHARE = 0.9
# the environment run.py gives its workers (one BLAS thread, fixed hashing)
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def parse_seeds(tokens):
    """[2501, 2502, ...] from tokens such as "2501-2503" and "2508"."""
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def first_in_pair(index):
    return SIDES[index % 2]


def spread(runs):
    """Median, inclusive quartiles and IQR of one side's runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": list(runs)}


def _better(spec, change, parent):
    return change < parent if spec["better"] == "lower" else change > parent


def summarize_metric(spec, parent_runs, change_runs):
    """One metric's entry of a BENCH file from its paired runs."""
    parent, change = spread(parent_runs), spread(change_runs)
    ratio = change["median"] / parent["median"]
    worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
    return {"unit": spec["unit"], "better": spec["better"],
            "parent": parent, "change": change,
            "change_wins": sum(_better(spec, c, p)
                               for p, c in zip(parent_runs, change_runs)),
            "change_over_parent_median": ratio,
            "bound": spec["bound"], "within_bound": worse <= spec["bound"]}


def claim_verdict(entry, pairs):
    """'met: ...' or 'not met: ...' for a claimed gain on one metric."""
    parent, change = entry["parent"], entry["change"]
    wins = entry["change_wins"]
    diff = abs(change["median"] - parent["median"])
    met = (wins >= CLAIM_SHARE * pairs
           and _better(entry, change["median"], parent["median"])
           and diff > parent["iqr"])
    return (f"{'met' if met else 'not met'}: change wins {wins}/{pairs}, "
            f"median {parent['median']:.4g} -> {change['median']:.4g}, "
            f"difference {diff:.3g} against parent IQR {parent['iqr']:.3g}")


def summarize(workload, seeds, runs, specs, claim=None, command=""):
    """The BENCH record of paired runs.

    ``runs[i]`` holds the pair of ``seeds[i]`` as {"parent": result,
    "change": result}, each result the last JSON line of ``run.py``
    ({"correct", "attempted", "failed", "metrics": {name: {"value"}}});
    ``specs`` are the end-to-end metrics of ``BENCHMARK.json``.
    """
    record = {"workload": workload, "command": command, "pairs": len(seeds),
              "seeds": list(seeds),
              "first_in_pair": [first_in_pair(i) for i in range(len(seeds))],
              "metrics": {}, "answer_check": {}}
    notes = []
    for spec in specs:
        name = spec["name"]
        entry = summarize_metric(
            spec, *([pair[side]["metrics"][name]["value"] for pair in runs]
                    for side in SIDES))
        record["metrics"][name] = entry
        notes.append(
            f"{name} {entry['parent']['median']:.4g} -> "
            f"{entry['change']['median']:.4g} "
            f"(x{entry['change_over_parent_median']:.3f}, change wins "
            f"{entry['change_wins']}/{len(seeds)}, parent IQR "
            f"{entry['parent']['iqr']:.3g})")
    for side in SIDES:
        record["answer_check"][side] = {
            "attempted": sum(pair[side]["attempted"] for pair in runs),
            "failed": sum(pair[side]["failed"] for pair in runs),
            "all_correct": all(pair[side]["correct"] for pair in runs)}
    if claim is not None:
        record["claim"] = claim
        record["claim_met"] = claim_verdict(record["metrics"][claim], len(seeds))
    record["notes"] = notes
    return record


def summarize_equal_ops(command, parent_mb, change_mb):
    return {"command": command, "parent_mb": list(parent_mb),
            "change_mb": list(change_mb),
            "median_ratio": statistics.median(change_mb)
            / statistics.median(parent_mb)}


def run_once(checkout, workload, seed, seconds):
    """The summary line of one ``run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_rss(checkout, workload, seed, seconds, ops):
    """Peak RSS [MB] of one ``worker.py --ops`` run in ``checkout``."""
    with tempfile.TemporaryDirectory() as work:
        result = os.path.join(work, "result.json")
        subprocess.run(
            [sys.executable, "perfbench/worker.py", "--workload", workload,
             "--seed", str(seed), "--seconds", repr(seconds),
             "--ops", str(ops), "--work", work, "--result", result],
            cwd=checkout, env=dict(os.environ, **WORKER_ENV), check=True,
            capture_output=True)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)["rss_mb"]


def _paired(seeds, measure):
    """[{side: measure(side, seed)}] in the interleaved order."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if first_in_pair(i) == SIDES[0] else SIDES[::-1]
        pairs.append({side: measure(side, seed) for side in order})
        print(f"seed {seed} done", file=sys.stderr)
    return pairs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", nargs="+", required=True)
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--claim")
    p.add_argument("--ops", type=int, default=0)
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("--seeds: quartiles need at least two pairs")
    with open(os.path.join(dirs["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        benchmark = json.load(fh)
    specs, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    runs = _paired(seeds, lambda side, seed: run_once(
        dirs[side], args.workload, seed, seconds))
    command = (f"python3 perfbench/run.py --workload {args.workload} "
               f"--seed SEED --seconds {seconds:g} --trace 0")
    record = summarize(args.workload, seeds, runs, specs, args.claim, command)
    record["hardware"] = (f"{os.cpu_count()} CPUs, {platform.machine()}, "
                          f"Python {platform.python_version()}")
    if args.ops:
        rss = _paired(seeds, lambda side, seed: worker_rss(
            dirs[side], args.workload, seed, seconds, args.ops))
        record["peak_rss_equal_ops"] = summarize_equal_ops(
            f"python3 perfbench/worker.py --workload {args.workload} "
            f"--seed SEED --seconds {seconds:g} --ops {args.ops}",
            *([pair[side] for pair in rss] for side in SIDES))
    out = f"BENCH_{args.pr}_{args.workload}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for note in record["notes"]:
        print(note)
    if args.claim:
        print(f"claim {args.claim}: {record['claim_met']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
