"""Write a BENCH_<name>.json: the benchmark at a parent commit and at this checkout.

Usage, from the root of a checkout:

    python3 tools/bench_file.py --parent <rev> --out BENCH_<name>.json \
        [--pairs 10] [--seconds 15] [--seed 0] \
        [--workloads finetune-1k finetune-32 verify] [--traces 0 1] [--summary TEXT]

Both sides run from fresh unpacks, made one way: `git archive` of a tree into
a temporary directory, removed afterwards. The parent's tree is its commit's;
"change" is a snapshot of this checkout's working tree, uncommitted edits and
untracked files that git does not ignore included (see `snapshot`). For each
workload and trace setting the tool runs `perfbench/run.py` in --pairs pairs,
one run of each side per pair, and alternates which side runs first. Each side
runs its own perfbench and src.

The file has the layout of the committed BENCH files: `parent` and `change`,
each workload -> trace0/trace1 -> {correct, attempted, failed, metrics}, plus
`machine`, `command`, `parent_commit` and `change_summary`. Every number is
the median over the pairs; `correct` is true only if every run was correct.
Each entry also has `runs`, every run's value of each end-to-end metric of
BENCHMARK.json in pair order, so pair i is entry i on both sides. A run that
exits non-zero, or whose last line is not a JSON result, stops the tool with
exit 1.

`claims` holds, per workload and end-to-end metric, the rule for claiming a
gain (see `claim`), which the tool also prints: the parent's median and
quartiles, the change's median, the pairs the change won, and whether a gain
may be claimed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("finetune-1k", "finetune-32", "verify")


def end_to_end():
    """Name -> "higher" or "lower", which is better, for each end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def _git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def commit_hash(rev):
    """The full hash of the commit that `rev` names."""
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def snapshot():
    """The hash of a git tree holding this checkout's working tree as it is now.

    The files are staged into a temporary index file, so the checkout's own
    index is left as it was. Ignored files stay out, as in a commit.
    """
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def unpack(tree, dest):
    """Extract `tree`, a commit or tree hash, into `dest`."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", tree))) as tar:
        tar.extractall(dest, filter="data")


def run_once(root, workload, trace, seed, seconds):
    """One perfbench run in checkout `root`: (machine dict, JSON result)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        if done.returncode != 0:
            raise ValueError(f"exit {done.returncode}")
        result = json.loads(lines[-1])
        machine = next(json.loads(line[len("machine "):]) for line in lines
                       if line.startswith("machine "))
    except (ValueError, IndexError, StopIteration) as exc:
        raise RuntimeError(f"{' '.join(argv[1:])} in {root} failed ({exc}):\n"
                           f"{done.stdout}{done.stderr}") from None
    return machine, result


def summarize(results, e2e):
    """The medians of a list of perfbench JSON results, in the same layout.

    `runs` lists every run's value of each metric named in `e2e` that the
    results hold (the end-to-end ones, which a --trace 0 run reports).
    """
    names = results[0]["metrics"]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": statistics.median(r["attempted"] for r in results),
        "failed": statistics.median(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                      for r in results),
                           "unit": names[name]["unit"]} for name in names},
        "runs": {name: [r["metrics"][name]["value"] for r in results]
                 for name in names if name in e2e},
    }


def claim(parent, change, better):
    """Whether one metric's runs, paired by index, let the change claim a gain.

    The change wins a pair when its run is better than the parent's; a tie
    counts for neither side. A gain may be claimed when the change wins at
    least nine tenths of the pairs and its median is better than the
    parent's by more than the parent's interquartile range.
    """
    q1, median, q3 = (float(q) for q in np.percentile(parent, (25, 50, 75)))
    change_median = statistics.median(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    return {"parent_median": median, "parent_q1": q1, "parent_q3": q3,
            "change_median": change_median, "wins": wins, "pairs": len(parent),
            "holds": wins >= 0.9 * len(parent) and sign * (change_median - median) > q3 - q1}


def claims(bench, e2e):
    """workload -> metric -> claim(), over the runs that `bench` holds for both sides."""
    out = {}
    for workload, by_trace in bench["change"].items():
        for trace, entry in by_trace.items():
            for name, runs in entry["runs"].items():
                out.setdefault(workload, {})[name] = claim(
                    bench["parent"][workload][trace]["runs"][name], runs, e2e[name])
    return out


def claim_line(workload, name, c):
    return (f"{workload} {name}: parent median {c['parent_median']:.6g} "
            f"(quartiles {c['parent_q1']:.6g}-{c['parent_q3']:.6g}), change median "
            f"{c['change_median']:.6g}, change won {c['wins']} of {c['pairs']} pairs, "
            f"gain claimable: {'yes' if c['holds'] else 'no'}")


def _parse(argv):
    p = argparse.ArgumentParser(prog="tools/bench_file.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True, help="path of the JSON file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--traces", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    p.add_argument("--summary", default="", help="one line on what the change does")
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0 or args.seed < 0:
        p.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    return args


def main(argv=None):
    args = _parse(argv)
    sides = {side: tempfile.mkdtemp(prefix=f"bench-{side}-") for side in ("parent", "change")}
    try:
        parent_sha = commit_hash(args.parent)
        unpack(parent_sha, sides["parent"])
        unpack(snapshot(), sides["change"])
        runs = {side: {} for side in sides}
        machine = None
        for workload in args.workloads:
            for trace in args.traces:
                for i in range(args.pairs):
                    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                        machine, result = run_once(sides[side], workload, trace, args.seed,
                                                   args.seconds)
                        runs[side].setdefault(workload, {}).setdefault(
                            f"trace{trace}", []).append(result)
                        print(f"{workload} trace{trace} pair {i} {side}: "
                              f"correct={result['correct']}", file=sys.stderr)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode() if isinstance(exc, subprocess.CalledProcessError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1
    finally:
        for root in sides.values():
            shutil.rmtree(root, ignore_errors=True)

    e2e = end_to_end()
    bench = {side: {w: {t: summarize(rs, e2e) for t, rs in by_trace.items()}
                    for w, by_trace in by_workload.items()}
             for side, by_workload in runs.items()}
    bench["claims"] = claims(bench, e2e)
    for workload, by_metric in bench["claims"].items():
        for name, c in by_metric.items():
            print(claim_line(workload, name, c))
    bench.update(
        change_summary=args.summary,
        command=(f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                 f"--seconds {args.seconds:g} --trace <t>; median of {args.pairs} interleaved "
                 "parent/change pairs (python3 tools/bench_file.py)"),
        machine=machine,
        parent_commit=parent_sha,
    )
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
