"""Tests of the benchmark itself, at the tiny input size."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _flip_decision(answers):
    answers[-1] = "false" if answers[-1] == "true" else "true"


def _break_mass(answers):
    answers[-1] = re.sub(r"^\d+", lambda m: str(int(m.group(0)) + 1), answers[-1])


def _unsplit_witness(answers):
    answers[-1] = answers[-1].replace('"equal": false', '"equal": true')


WRONG = {"decide": _flip_decision, "expand": _break_mass, "search": _unsplit_witness}


@pytest.mark.parametrize("workload", sorted(WRONG))
def test_wrong_answer_counts_in_failed_ratio(workload, monkeypatch):
    real_worker = run.run_worker
    tampered = []

    def worker_with_one_wrong_answer(text, spans=None):
        result = real_worker(text, spans)
        if text:
            WRONG[workload](result["answers"])
            tampered.append(result["answers"][-1])
        return result

    monkeypatch.setattr(run, "run_worker", worker_with_one_wrong_answer)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    record = run.run(workload, seed=3, seconds=0, trace=0, size="tiny")
    assert len(tampered) == 1
    assert record["failed"] == 1, record["failures"]
    assert record["failed_ratio"] == 1 / record["attempted"]


def _summary(capsys, monkeypatch, *args):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    assert run.main([*args, "--seed", "5", "--seconds", "0", "--size", "tiny"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _names(section):
    return [m["name"] for m in BENCH[section]]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_run_prints_every_end_to_end_metric(workload, capsys, monkeypatch):
    summary = _summary(capsys, monkeypatch, "--workload", workload)
    assert sorted(summary) == ["attempted", "correct", "failed", "metrics"]
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert list(summary["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_traced_run_reports_per_layer_metrics(capsys, monkeypatch):
    summary = _summary(capsys, monkeypatch, "--workload", "expand", "--trace", "1")
    assert summary["correct"]
    metrics = summary["metrics"]
    assert list(metrics) == _names("per_layer")
    assert metrics["intlinalg.hnf_calls"]["value"] == 0
    assert metrics["parity.summands"]["value"] > 0
    assert metrics["diagrams.key_calls"]["value"] > 0


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_every_answer_is_scaled_by_the_reference_around_it():
    result = run.run_worker(run.generate("search", 1, "tiny")["input"])
    times, refs = result["times"], result["reference_s"]
    assert len(times) == len(refs) == len(result["answers"]) > 1
    assert all(ref > 0 for ref in refs)
    assert result["nominal_times"] == pytest.approx(
        [t * run.NOMINAL_REFERENCE_S / ref for t, ref in zip(times, refs)]
    )
    assert result["nominal_setup_s"] > 0


def test_generator_depends_only_on_the_seed():
    first = run.generate("decide", 11, "tiny")
    assert run.generate("decide", 11, "tiny") == first
    assert run.generate("decide", 12, "tiny")["input"] != first["input"]
    cold = [e["group"] for e in first["expected"] if e["cold"]]
    assert len(cold) == len(set(cold)) == 7


def test_compare_refuses_different_inputs():
    bench = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}]}

    def records(digest, wall):
        return {("search", 1): {"input_sha256": digest, "metrics": {"wall_s": wall}}}

    lines, regressions = compare.compare(records("a", 1.0), records("a", 1.2), bench)
    assert regressions == 1 and "REGRESSED" in lines[0]
    with pytest.raises(ValueError, match="digests differ"):
        compare.compare(records("a", 1.0), records("b", 1.0), bench)
