#!/usr/bin/env python3
"""Compare the working tree with a parent revision on the benchmark, in pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --seeds 1-10 --seconds 10

For every workload and seed, runs `perfbench/run.py --seconds S --trace 0`
once in a checkout of the parent revision and once in the working tree,
alternating which side runs first from seed to seed, so slow drift of a
shared host lands on both sides of a pair. The parent is checked out into a
temporary `git worktree`, removed at the end (or taken from `--parent-dir`).
Prints, per workload and metric, the median and quartiles of each side,
the relative change of the medians, in how many pairs the change was
better, a verdict (see `verdict`) and the seeds of the pairs in which the
change ran worse (see `worse_seeds`), for the gated metrics of
BENCHMARK.json, with their `bound` and `better`, plus `st_ms_p50`,
`pcst_ms_p50`, `alloc_mb_per_summary` and `summaries_per_s`, which have no
bound (see `better`). A workload that BENCHMARK.json declares is compared on
all of them, the last two where its runs print them; any other
(`harness-grid`) on those its runs print (see `compared`). Exits 1 if any run is not `correct`, fails or lacks
a metric it must print, or if any verdict is `worse` or `unresolved` (see
`refusals`), and leaves perfbench/ and BENCHMARK.json alone.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

# Compared with no bound, so their verdict is `gain` or `same`, by the
# direction that is better. A declared workload must print EXTRA; OPTIONAL
# is compared wherever the runs print it.
EXTRA = {"st_ms_p50": "lower", "pcst_ms_p50": "lower"}
OPTIONAL = {"alloc_mb_per_summary": "lower", "summaries_per_s": "higher"}


def seeds(spec):
    """'1-10' or '1,4,7' (or a mix) → list of ints."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    s = sorted(xs)

    def at(p):
        k = (len(s) - 1) * p
        i = int(k)
        return s[i] if i + 1 == len(s) else s[i] + (s[i + 1] - s[i]) * (k - i)
    return at(0.25), at(0.5), at(0.75)


def wins(parent, change, better="lower"):
    """Number of pairs in which the change is better; a tie counts for neither.

    >>> wins([3, 3, 3], [2, 3, 4]), wins([3, 3, 3], [2, 3, 4], better="higher")
    (1, 1)
    """
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - x) < 0 for x, c in zip(parent, change))


def worse_seeds(pair_seeds, parent, change, better="lower"):
    """The seeds of the pairs in which the change ran worse than its parent.

    `pair_seeds[i]` is the seed of pair i; a tie is not worse. A spike on
    one side shows here by seed, such as one run whose scratch buffers grew
    in a timed call.

    >>> worse_seeds([1, 2, 3], [3.0, 3.0, 3.0], [2.0, 3.0, 4.0])
    [3]
    >>> worse_seeds([1, 2, 3], [3.0, 3.0, 3.0], [2.0, 3.0, 4.0], better="higher")
    [1]
    >>> worse_seeds([4, 5, 6], [0.0074, 0.0074, 0.0075], [0.0050, 0.0199, 0.0050])
    [5]
    >>> worse_seeds([], [], [])
    []
    """
    sign = 1 if better == "lower" else -1
    return [s for s, x, c in zip(pair_seeds, parent, change) if sign * (c - x) > 0]


def verdict(parent, change, bound=None, better="lower"):
    """Verdict on one (workload, metric) from the values of paired runs.

    `parent[i]` and `change[i]` come from pair i. "Better" is lower, or
    higher with better="higher". Checked in this order:

    - worse: the change's median is worse than the parent's by more than
      `bound` times the parent's median;
    - unresolved: the parent's spread (IQR over median) is above `bound`, and
      not every change run is better than every parent run;
    - gain: the change is better in at least 9/10 of the pairs (a tie counts
      for neither side), and its median is better than the parent's by more
      than the parent's IQR;
    - same: otherwise.

    A metric without a bound (None) can only be `gain` or `same`.

    >>> p = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    >>> verdict(p, [x * 1.3 for x in p], bound=0.25)
    'worse'
    >>> verdict(p, [x * 1.2 for x in p], bound=0.25)
    'same'
    >>> verdict(p, [x * 1.3 for x in p])
    'same'
    >>> verdict(p, [x * 0.8 for x in p], bound=0.25)
    'gain'
    >>> verdict(p, [x * 0.8 for x in p[:9]] + [11.0], bound=0.25)
    'gain'
    >>> verdict(p, [x * 0.8 for x in p[:8]] + [11.0, 11.0])
    'same'
    >>> verdict(p, [x - 0.1 for x in p])
    'same'
    >>> noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    >>> verdict(noisy, [x * 1.1 for x in noisy], bound=0.25)
    'unresolved'
    >>> verdict(noisy, [4.0] * 10, bound=0.25)
    'gain'
    >>> verdict(p, [x * 0.7 for x in p], bound=0.25, better="higher")
    'worse'
    >>> verdict(p, [x * 1.3 for x in p], bound=0.25, better="higher")
    'gain'
    """
    sign = 1 if better == "lower" else -1
    q1, pm, q3 = quartiles(parent)
    cm = quartiles(change)[1]
    if bound is not None:
        if sign * (cm - pm) > bound * abs(pm):
            return "worse"
        every_run_better = all(sign * (c - x) < 0 for c in change for x in parent)
        if q3 - q1 > bound * abs(pm) and not every_run_better:
            return "unresolved"
    if wins(parent, change, better) >= 0.9 * len(parent) and sign * (pm - cm) > q3 - q1:
        return "gain"
    return "same"


def refusals(verdicts):
    """The (workload, metric) pairs whose verdict fails the comparison, by verdict.

    `verdicts` maps "workload metric" to its verdict. A `worse` metric got
    worse beyond its bound; an `unresolved` one cannot be told from the
    parent's spread, so the bound cannot be checked either.

    >>> refusals({"uc-ksweep setup_s": "same", "user-group pcst_alloc_mb": "unresolved",
    ...           "user-group st_alloc_mb": "worse", "uc-ksweep pcst_ms_p50": "gain"})
    {'worse': ['user-group st_alloc_mb'], 'unresolved': ['user-group pcst_alloc_mb']}
    >>> refusals({"uc-ksweep setup_s": "same", "user-group st_alloc_mb": "gain"})
    {}
    """
    out = {}
    for v in ("worse", "unresolved"):
        names = [name for name, got in verdicts.items() if got == v]
        if names:
            out[v] = names
    return out


def compared(workload, printed, names, declared):
    """The metrics of `names` that a run of `workload` must print and is compared on.

    A workload that BENCHMARK.json declares (`declared`) is gated on every
    one of them but those in OPTIONAL, so one of those that its run did not
    print is an error. OPTIONAL metrics, and on any other workload all of
    `names`, are compared where the run printed them: `harness-grid` prints
    no `st_alloc_mb` or `pcst_alloc_mb`.

    >>> names = ["setup_s", "st_alloc_mb", "pcst_alloc_mb", "st_ms_p50",
    ...          "alloc_mb_per_summary", "summaries_per_s"]
    >>> declared = ["uc-ksweep", "user-group"]
    >>> compared("uc-ksweep", {"setup_s": 2.1, "st_ms_p50": 9.5}, names, declared)
    ['setup_s', 'st_alloc_mb', 'pcst_alloc_mb', 'st_ms_p50']
    >>> compared("uc-ksweep", {"setup_s": 2.1, "summaries_per_s": 80.0}, names, declared)
    ['setup_s', 'st_alloc_mb', 'pcst_alloc_mb', 'st_ms_p50', 'summaries_per_s']
    >>> compared("harness-grid", {"setup_s": 2.1, "eval.harness_s": 1.6, "alloc_mb_per_summary": 0.4,
    ...                           "summaries_per_s": 120.0}, names, declared)
    ['setup_s', 'alloc_mb_per_summary', 'summaries_per_s']
    """
    if workload in declared:
        return [m for m in names if m not in OPTIONAL or m in printed]
    return [m for m in names if m in printed]


def better(metric, gated):
    """Whether lower or higher is better: BENCHMARK.json's `better` for a gated
    metric (`gated`, by name), else EXTRA's or OPTIONAL's, else lower.

    >>> gated = {"setup_s": {"better": "lower", "bound": 0.25}}
    >>> [better(m, gated) for m in ("setup_s", "pcst_ms_p50", "alloc_mb_per_summary", "summaries_per_s")]
    ['lower', 'lower', 'lower', 'higher']
    >>> p = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    >>> verdict(p, [x * 1.3 for x in p], None, better("summaries_per_s", gated))
    'gain'
    >>> verdict(p, [x * 0.5 for x in p], None, better("summaries_per_s", gated))
    'same'
    >>> verdict(p, [x * 0.5 for x in p], None, better("alloc_mb_per_summary", gated))
    'gain'
    """
    if metric in gated:
        return gated[metric].get("better", "lower")
    return {**EXTRA, **OPTIONAL}.get(metric, "lower")


def run(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: (correct, {metric: value})."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, {}
    metrics = {}
    for line in lines:
        f = line.split()
        if len(f) >= 3 and f[0] == "metric":
            metrics[f[1]] = float(f[2])
    correct = proc.returncode == 0 and result.get("correct") is True and result.get("failed") == 0
    return correct, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    p.add_argument("--parent-dir", help="an existing checkout of the parent, instead of a worktree")
    p.add_argument("--workloads", default="uc-ksweep,user-group")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=int, default=10)
    a = p.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    declared = [w["name"] for w in bench["workloads"]]
    names = list(gated) + [m for m in list(EXTRA) + list(OPTIONAL) if m not in gated]
    workloads = a.workloads.split(",")

    worktree = None
    parent = a.parent_dir
    if parent is None:
        worktree = tempfile.mkdtemp(prefix="bench-parent-")
        subprocess.run(["git", "worktree", "add", "--detach", worktree, a.parent], cwd=root, check=True,
                       stdout=subprocess.DEVNULL)
        parent = worktree
    values = {(w, side, m): [] for w in workloads for side in ("parent", "change") for m in names}
    pair_seeds = {(w, m): [] for w in workloads for m in names}
    bad = []
    sides = [("parent", parent), ("change", root)]
    try:
        for i, seed in enumerate(seeds(a.seeds)):
            for w in workloads:
                got = {}
                for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                    correct, metrics = run(checkout, w, seed, a.seconds)
                    print(f"{w} seed={seed} {side}: correct={correct} " +
                          " ".join(f"{m}={metrics.get(m)}" for m in names), flush=True)
                    if not correct or any(m not in metrics for m in compared(w, metrics, names, declared)):
                        bad.append(f"{w} seed={seed} {side}")
                    got[side] = metrics
                # A pair counts for a metric that both of its runs printed.
                for m in compared(w, got["parent"], names, declared):
                    if all(m in got[side] for side in got):
                        for side in got:
                            values[(w, side, m)].append(got[side][m])
                        pair_seeds[(w, m)].append(seed)
    finally:
        if worktree is not None:
            subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=root)

    print()
    print(f"{'workload':<12} {'metric':<20} {'parent median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} {'change':>7}  better  {'verdict':<10}  worse at seeds")
    verdicts = {}
    for w in workloads:
        for m in names:
            parent_values, change_values = values[(w, "parent", m)], values[(w, "change", m)]
            if not parent_values:
                continue
            direction = better(m, gated)
            v = verdict(parent_values, change_values, gated.get(m, {}).get("bound"), direction)
            n_better = wins(parent_values, change_values, direction)
            pq1, pm, pq3 = quartiles(parent_values)
            cq1, cm, cq3 = quartiles(change_values)
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            worse = ",".join(map(str, worse_seeds(pair_seeds[(w, m)], parent_values, change_values, direction)))
            print(f"{w:<12} {m:<20} {f'{pm:.6g} [{pq1:.6g}, {pq3:.6g}]':<40} "
                  f"{f'{cm:.6g} [{cq1:.6g}, {cq3:.6g}]':<40} {rel:>7}  {f'{n_better}/{len(parent_values)}':<6}  "
                  f"{v:<10}  {worse or '-'}")
            verdicts[f"{w} {m}"] = v
    refused = refusals(verdicts)
    if bad:
        print("runs not correct or incomplete: " + "; ".join(bad))
    if "worse" in refused:
        print("worse than the parent beyond the bound: " + "; ".join(refused["worse"]))
    if "unresolved" in refused:
        print("unresolved, the parent's spread is above the bound: " + "; ".join(refused["unresolved"]))
    if bad or refused:
        sys.exit(1)


if __name__ == "__main__":
    main()
