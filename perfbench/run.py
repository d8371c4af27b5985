"""Benchmark of chordcalc: three closed-loop workloads, every round in a fresh
worker process so the library's caches start cold, as in every CLI call.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports chordcalc from ``src/`` there
and fails if that is missing.  One client (this process) and one worker at a
time, no threads.  The generator (``gen.py``) turns the seed into command
text in the CLI grammar, in a process of its own; then worker rounds
(``worker.py``) answer that text until ``--seconds`` have passed, and every
answer of every round is checked against the generator's expectations.

Workloads:

* ``decide`` -- ``quotient_equal`` on seeded pairs read with ``cli.parse``:
  one cold decision per (kind, field) builds the lattices, then a shuffled
  warm stream;
* ``expand`` -- ``psi``/``psi_l`` then ``weight`` on distinct random framed
  circles and lines, equal shares of degrees 5, 6 and 7;
* ``search`` -- ``search_counterexample(4)``, then every witness confirmed
  with ``quotient_equal``.

With ``--trace 0`` every workload reports the end-to-end metrics, each the
median over the run's rounds, every timing in nominal seconds: the worker
runs a fixed reference computation between its answers, and each answer's
time is scaled by how fast the reference ran around it, so that the drift of
a shared machine's speed cancels out (see ``NOMINAL_REFERENCE_S``).  The
same figures in seconds as measured are printed above the last line and kept
in the record.

* ``setup_s`` -- worker launch until the library is imported, the median of
  at least fifteen launches;
* ``wall_s`` -- the time spent answering: first library call to last
  answer, without the reference runs between the answers;
* ``peak_rss_mb`` -- the worker's ``ru_maxrss``, the median over the rounds;
* ``first_answer_s`` -- the cold first answers, summed: decide, the first
  decision of each (kind, field); expand, the first input of each (shape,
  degree), which is the same for every seed; search, the witness search;
* ``answers_per_s`` -- checked answers per second after those: decide, the
  warm decisions (printed as ``decide_per_s`` too); expand, the seeded
  expansions; search, the witness confirmations.

The report above the last line also gives ``summands_per_s`` (expand: 2^n
summed over the inputs, per second of ``wall_s``) and ``failed_ratio``
(answers that failed their check or raised, over answers attempted); the
last line carries the same two counts as ``failed`` and ``attempted``.

With ``--trace 1`` rounds alternate untraced and traced (see ``tracing.py``)
and the per-layer metrics, medians over the traced rounds, are reported
instead, with ``trace_overhead_s``, the median traced minus the median
untraced ``wall_s``.  The spans of the last traced round are written to
``perfbench/out/``.

Every run writes a record there too, ``<workload>-seed<seed>-trace<t>.json``:
environment, sha256 of the input text, per-round figures and all metrics.
``compare.py`` compares two sets of records and refuses if their input
digests differ.  The last line of stdout is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
# Timings are reported in nominal seconds: each answer's time in seconds,
# times this constant over the time of the fixed reference computation the
# worker runs around it (``worker.Answers``); set-up time likewise, with the
# worker's first reference run.  The machine's speed cancels out: a shared
# 2-vCPU virtual machine runs up to half slower or faster from one second to
# the next and from one minute to the next, far past any bound a regression
# check can use, while the ratio of two computations run side by side moves
# much less.  0.025 s is about the reference's time there when the machine
# is idle, so nominal seconds are close to seconds; the report and the
# record give the seconds as measured too.
NOMINAL_REFERENCE_S = 0.025
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "decide": {
        "why": "The only workload that builds relation lattices: cold Z and Q builds "
        "(framed n=4 HNF and generate_4T dominate) then warm decisions of about "
        "1 ms with parsing, the lattice layer loaded two ways.",
        "bypasses": "Bypasses parity, surgery and sums; linear n=4, dlinear n=4 and "
        "framed Q are left out, their cold builds take 299 s, 15 s and 10 s.",
    },
    "expand": {
        "why": "Parity expansion and weight of distinct random diagrams, mostly "
        "two-circle canonicalization with a canonical cache that mostly misses.",
        "bypasses": "Touches no lattice code (intlinalg and quotient_equal never "
        "run) and bypasses sums.",
    },
    "search": {
        "why": "The counterexample search and its exact confirmation stress sums, "
        "parity and diagram validation with a canonical cache that almost always "
        "hits.",
        "bypasses": "Bypasses cli parsing; of the lattices it builds only the small "
        "double ones of degree 3 and 4.",
    },
}
# Reported above the summary line, not bounded: they exist on one workload only.
REPORT_ONLY = {"decide_per_s": "1/s", "summands_per_s": "1/s"}


def _child(args, **kwargs):
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        **kwargs,
    )


def _stdout_json(proc, what):
    if proc.returncode:
        raise RuntimeError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout)


def generate(workload, seed, size="full"):
    """The generator's ``{"input", "expected"}`` for one workload and seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    args = [HERE / "gen.py", "--workload", workload, "--seed", seed, "--size", size]
    return _stdout_json(_child(args, env=env), "generator")


def run_worker(text, spans=None):
    """One round: a fresh worker answers ``text``; adds ``setup_s`` and, in
    nominal seconds, ``nominal_setup_s`` and ``nominal_times``."""
    args = [HERE / "worker.py"] + (["--spans", spans] if spans else [])
    launched = time.monotonic()
    result = _stdout_json(_child(args, input=text), "worker")
    result["setup_s"] = result["ready"] - launched
    result["nominal_setup_s"] = (
        result["setup_s"] * NOMINAL_REFERENCE_S / result["setup_reference_s"]
    )
    result["nominal_times"] = [
        t * NOMINAL_REFERENCE_S / ref for t, ref in zip(result["times"], result["reference_s"])
    ]
    return result


# ---------------------------------------------------------------------------
# answer checks: each returns (attempted, failures)

_COEFF_RE = re.compile(r"(-?\d+) \[")


def _answer(answers, i):
    return answers[i] if i < len(answers) else "missing"


def check_decide(expected, answers):
    failures = []
    for i, exp in enumerate(expected):
        got = _answer(answers, i)
        if got != exp["answer"]:
            failures.append(f"line {i + 1} ({exp['group']}): expected {exp['answer']}, got {got}")
    return len(expected), failures


def check_expand(expected, answers):
    failures = []
    for i, exp in enumerate(expected):
        got = _answer(answers, i)
        element, _, w = got.partition("\t")
        coeffs = [int(c) for c in _COEFF_RE.findall(element)]
        if not coeffs or min(coeffs) < 1 or sum(coeffs) != 2 ** exp["n"]:
            failures.append(f"line {i + 1} ({exp['class']}): mass is not 2^{exp['n']}: {got[:200]}")
        elif not w.lstrip("-").isdigit():
            failures.append(f"line {i + 1} ({exp['class']}): no integer weight: {got[:200]}")
        elif exp["copy_of"] is not None and got != _answer(answers, exp["copy_of"]):
            failures.append(f"line {i + 1}: differs from line {exp['copy_of'] + 1}, its copy")
    return len(expected), failures


def check_search(expected, answers):
    exp = expected[0]
    failures = []
    try:
        summary = json.loads(_answer(answers, 0))
    except ValueError:
        summary = {}
    if summary.get("witnesses") != exp["witnesses"] or exp["values"] not in summary.get(
        "values", []
    ):
        failures.append(f"expected {exp['witnesses']} witnesses with values {exp['values']}, "
                        f"got {_answer(answers, 0)[:200]}")
    confirmations = max(exp["witnesses"], len(answers) - 1)
    for i in range(1, confirmations + 1):
        got = _answer(answers, i)
        try:
            confirmation = json.loads(got)
            split = confirmation["equal"] is False and confirmation["w"][0] != confirmation["w"][1]
        except (ValueError, KeyError, TypeError, IndexError):
            split = False
        if not split:
            failures.append(f"witness {i}: not confirmed unequal: {got[:200]}")
    return 1 + confirmations, failures


CHECKS = {"decide": check_decide, "expand": check_expand, "search": check_search}


# ---------------------------------------------------------------------------
# metrics


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def round_figures(workload, expected, result, nominal=True):
    """End-to-end figures of one untraced round, in nominal seconds or in
    seconds as measured."""
    times = result["nominal_times" if nominal else "times"]
    fig = {
        "setup_s": result["nominal_setup_s" if nominal else "setup_s"],
        "wall_s": sum(times),
        "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
    }
    if workload == "decide":
        cold = [t for t, e in zip(times, expected) if e["cold"]]
        warm = [t for t, e in zip(times, expected) if not e["cold"]]
        fig["first_answer_s"] = sum(cold)
        fig["answers_per_s"] = fig["decide_per_s"] = _rate(len(warm), sum(warm))
    elif workload == "expand":
        probes = [t for t, e in zip(times, expected) if e["role"] == "probe"]
        seeded = [t for t, e in zip(times, expected) if e["role"] == "input"]
        fig["first_answer_s"] = sum(probes)
        fig["answers_per_s"] = _rate(len(seeded), sum(seeded))
        fig["summands_per_s"] = _rate(sum(2 ** e["n"] for e in expected), fig["wall_s"])
    else:
        fig["first_answer_s"] = times[0] if times else 0.0
        fig["answers_per_s"] = _rate(len(times) - 1, sum(times[1:]))
    return fig


def layer_figures(result):
    """Per-layer figures of one traced round, times in nominal seconds at
    the round's mean ratio of nominal to measured seconds."""
    scale = sum(result["nominal_times"]) / sum(result["times"])
    fig = {
        name: value * scale if name.endswith("_s") else value
        for name, value in result["layers"].items()
    }
    for layer, counters in result["caches"].items():
        for counter, value in counters.items():
            fig[f"{layer}.cache_{counter}"] = value
    return fig


def summarize(figures):
    """The median of each figure over the rounds."""
    return {name: statistics.median(f[name] for f in figures) for name in figures[0]}


# ---------------------------------------------------------------------------
# environment and the run itself


def environment(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "chordcalc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run(workload, seed, seconds, trace, size="full"):
    """Run one benchmark and return its record."""
    env = environment(seed)
    inputs = generate(workload, seed, size)
    text, expected = inputs["input"], inputs["expected"]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    rounds = []  # (traced, result)
    ends = []
    start = time.monotonic()
    # Another round starts only if a round as long as the longest so far
    # still ends within ``seconds``, so that a run measures for ``seconds``.
    while (
        not rounds
        or time.monotonic() - start + max(b - a for a, b in zip([start] + ends, ends)) <= seconds
        or (trace and len(rounds) < 2)
    ):
        traced = bool(trace) and len(rounds) % 2 == 1
        rounds.append((traced, run_worker(text, spans if traced else None)))
        ends.append(time.monotonic())
    attempted = failed = 0
    failures = []
    for _traced, result in rounds:
        n, bad = CHECKS[workload](expected, result["answers"])
        attempted += n
        failed += len(bad)
        failures.extend(bad)
    plain = [round_figures(workload, expected, r) for traced, r in rounds if not traced]
    raw = [round_figures(workload, expected, r, nominal=False) for traced, r in rounds if not traced]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "seconds": seconds,
        "round_count": len(rounds),
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        **WORKLOADS[workload],
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
    }
    if trace:
        layers = [layer_figures(r) for traced, r in rounds if traced]
        traced_wall = statistics.median(sum(r["nominal_times"]) for traced, r in rounds if traced)
        plain_wall = statistics.median(f["wall_s"] for f in plain)
        # median_low keeps the counts whole when the rounds are even in number.
        metrics = {
            name: statistics.median_low(f[name] for f in layers) for name in layers[0]
        }
        metrics["trace_overhead_s"] = traced_wall - plain_wall
        record.update(rounds=layers, untraced_wall_s=plain_wall, spans=str(spans.relative_to(ROOT)))
    else:
        setups = [f["setup_s"] for f in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker("")["nominal_setup_s"])
        metrics = summarize(plain)
        metrics["setup_s"] = statistics.median(setups)
        record.update(rounds=plain, measured_rounds=raw, setup_samples=setups,
                      measured_metrics=summarize(raw))
    record["metrics"] = metrics
    return record


def units(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` lists them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def report(record, unit_of):
    """Human-readable lines above the JSON summary."""
    unit_of = {**REPORT_ONLY, **unit_of}
    lines = [
        f"chordcalc benchmark  workload={record['workload']}  seed={record['seed']}  "
        f"trace={record['trace']}  rounds={record['round_count']}",
        f"  input sha256 {record['input_sha256']}",
    ]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:34s} {value:.6g} {unit_of[name]}")
    if "measured_metrics" in record:
        lines.append("  in seconds as measured, medians over the rounds:")
        for name, value in record["measured_metrics"].items():
            lines.append(f"    {name:32s} {value:.6g} {unit_of[name]}")
    lines.append(
        f"  {'failed_ratio':34s} {record['failed_ratio']:.6g} "
        f"({record['failed']} of {record['attempted']} answers)"
    )
    lines.extend(f"  failure: {f}" for f in record["failures"])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="tiny: the small inputs of the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "chordcalc" / "__init__.py").is_file():
        print(f"error: no chordcalc sources under {SRC}", file=sys.stderr)
        return 2
    unit_of = units(args.trace)
    record = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in report(record, unit_of):
        print(line)
    print(f"  record {path.relative_to(ROOT)}")
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in unit_of.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
