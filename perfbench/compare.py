"""Compare the benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<seed>-trace0.json`` records that
``run.py`` wrote to ``perfbench/out/`` for one commit.  Runs are paired by
workload and seed.  If any pair was generated from different input text (its
sha256 differs), the library changed the workload itself, so the runs measure
different work: the comparison is refused with exit code 2.  Otherwise each
workload and end-to-end metric gets one line: both sides' median and
quartiles, the share of seeds on which the change was better, and whether its
median is worse than the base's by more than the bound in ``BENCHMARK.json``
(exit code 1 if any is).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        records[record["workload"], record["seed"]] = record
    return records


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(base, change, bench):
    """Report lines and the number of regressions beyond their bound."""
    pairs = sorted(set(base) & set(change))
    if not pairs:
        raise ValueError("no workload and seed was run on both sides")
    mismatched = [p for p in pairs if base[p]["input_sha256"] != change[p]["input_sha256"]]
    if mismatched:
        raise ValueError(
            "input digests differ, the runs measure different work: "
            + ", ".join(f"{w} seed {s}" for w, s in mismatched)
        )
    lines, regressions = [], 0
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            b = [base[workload, s]["metrics"][name] for s in seeds]
            c = [change[workload, s]["metrics"][name] for s in seeds]
            bm, bq1, bq3 = spread(b)
            cm, cq1, cq3 = spread(c)
            worse = sign * (cm - bm) / bm
            wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            lines.append(
                f"{workload:7s} {name:15s} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  worse by {worse:+.1%} "
                f"(bound {metric['bound']:.0%})  won {wins}/{len(seeds)}  {verdict}"
            )
    return lines, regressions


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        lines, regressions = compare(load(argv[0]), load(argv[1]), bench)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
