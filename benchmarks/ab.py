"""Same-runner A/B of the end-to-end benchmark: this tree against REF.

    python3 benchmarks/ab.py REF

Checks REF out into a temporary detached ``git worktree`` and runs
:data:`PAIRS` pairs of ``benchmarks/e2e/run.py --reps 1 --trace 0`` on
the fixed :data:`SEEDS`, one seed per pair, alternating which tree runs
first. Each side runs its own tree's ``run.py`` on its own ``src/``.

For every workload and every ``end_to_end`` metric of ``BENCHMARK.json``
it prints both medians with their quartiles, the median change, the
number of pairs the change won and a verdict:

* ``REGRESSED`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — otherwise, but the parent's quartile spread exceeds
  the bound, so the runs are too noisy to call it ``ok``;
* ``ok`` — otherwise.

Exits 1 on any ``REGRESSED`` metric or when a workload fails a larger
share of its points on the change side than on the parent side. The
worktree is removed however the run ends.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE / "e2e"))

from run import load_metrics, quartiles  # noqa: E402

PAIRS = 10
SEEDS = tuple(range(1, PAIRS + 1))

#: Columns of the printed table.
ROW = "{:<10} {:<12} {:>26} {:>26} {:>7} {:>5}  {}"


def run_side(tree: Path, seed: int, out: Path) -> dict:
    """One ``run.py`` round of every workload in ``tree``; its summary."""
    subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"), "--reps", "1",
         "--trace", "0", "--seed", str(seed), "--json", str(out)],
        cwd=tree, stdout=subprocess.DEVNULL, check=True,
    )
    with open(out) as handle:
        return json.load(handle)


def compare(parent: list[dict], change: list[dict], metrics: list[dict]):
    """The A/B rows and the failures that gate them.

    ``parent`` and ``change`` hold the ``run.py --json`` documents of each
    pair, in pair order. A pair is a win when the change is strictly
    better than the parent on it. Each workload ends with a
    ``failed_frac`` row: the share of its points that failed, all pairs
    pooled.
    """
    rows, failures = [], []
    for name in parent[0]["workloads"]:
        for metric in metrics:
            key = metric["name"]
            before = [doc["workloads"][name]["metrics"][key]["value"] for doc in parent]
            after = [doc["workloads"][name]["metrics"][key]["value"] for doc in change]
            p_q1, p_med, p_q3 = parent_q = quartiles(before)
            change_q = quartiles(after)
            sign = 1 if metric["better"] == "lower" else -1
            delta = (change_q[1] - p_med) / p_med
            if sign * delta > metric["bound"]:
                verdict = "REGRESSED"
                failures.append(f"{name} {key} {delta:+.1%} (bound {metric['bound']:.0%})")
            elif (p_q3 - p_q1) / p_med > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": key, "verdict": verdict,
                "parent": parent_q, "change": change_q, "delta": delta,
                "wins": sum(sign * (b - a) < 0 for a, b in zip(before, after)),
                "pairs": len(before),
            })
        shares = [
            sum(doc["workloads"][name]["failed"] for doc in docs)
            / sum(doc["workloads"][name]["attempted"] for doc in docs)
            for docs in (parent, change)
        ]
        verdict = "REGRESSED" if shares[1] > shares[0] else "ok"
        if verdict != "ok":
            failures.append(f"{name} failed_frac {shares[0]:.3g} -> {shares[1]:.3g}")
        rows.append({"workload": name, "metric": "failed_frac", "verdict": verdict,
                     "parent": shares[0], "change": shares[1]})
    return rows, failures


def format_row(row: dict) -> str:
    if "wins" not in row:
        cells = [f"{row['parent']:.4g}", f"{row['change']:.4g}", "", ""]
    else:
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["parent"], row["change"])]
        cells += [f"{row['delta']:+.1%}", f"{row['wins']}/{row['pairs']}"]
    return ROW.format(row["workload"], row["metric"], *cells, row["verdict"])


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    tree = scratch / "parent"
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), argv[0]],
                       cwd=ROOT, stdout=sys.stderr, check=True)
        parent, change = [], []
        sides = [(tree, parent, "parent"), (ROOT, change, "change")]
        for pair, seed in enumerate(SEEDS):
            order = sides[::-1] if pair % 2 else sides
            for side, docs, label in order:
                print(f"[ab] pair {pair + 1}/{PAIRS} seed {seed}: {label}", file=sys.stderr)
                docs.append(run_side(side, seed, scratch / f"{label}-{seed}.json"))
    finally:
        if tree.exists():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    rows, failures = compare(parent, change, load_metrics(False))
    print(f"A/B of {argv[0]} (parent) against this tree (change), {PAIRS} pairs:")
    print(ROW.format("workload", "metric", "parent [q1, q3]", "change [q1, q3]", "delta",
                     "wins", "verdict"))
    for row in rows:
        print(format_row(row))
    for failure in failures:
        print(f"[ab] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
