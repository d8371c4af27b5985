"""One benchmark round in a fresh process, so every library cache starts cold.

    python3 perfbench/worker.py [--spans PATH] < commands.txt

Reads the generator's commands from stdin, one per line with tab-separated
arguments in the chordcalc CLI grammar, answers each through the library and
prints one JSON object: the answers, the time each took, the monotonic clock
reading once the library is imported, the times of the reference computation
run between the answers (see ``Answers``), the peak RSS and the cache
counters of each layer.  With ``--spans`` the library's public functions are
traced (see ``tracing.py``), the spans are written to PATH and the per-layer
figures are added to the output.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import chordcalc  # noqa: E402
from chordcalc import algebra, cli, diagrams, parity, sums, surgery  # noqa: E402

# Functions are looked up on their modules at call time, so that the traced
# run sees the wrapped bindings.


def quotient_eq(args):
    u = cli.parse(args[0])
    v = cli.parse(args[1])
    equal = algebra.quotient_equal(u, v, rational="--rational" in args[2:])
    return "true" if equal else "false"


def expand(name):
    def run(args):
        element = getattr(parity, name)(cli.parse(args[0]))
        return f"{cli.format_element(element)}\t{surgery.weight(element)}"

    return run


def find_counterexample(args):
    """Yields the witness summary, then one confirmation per witness."""
    witnesses = sums.search_counterexample(int(args[1]))
    values = sorted({w.w_values for w in witnesses})
    yield json.dumps({"witnesses": len(witnesses), "values": values})
    for w in witnesses:
        lhs = parity.psi(diagrams.from_key(w.sum_a))
        rhs = parity.psi(diagrams.from_key(w.sum_b))
        equal = algebra.quotient_equal(lhs, rhs)
        yield json.dumps({"w": [w.w_a, w.w_b], "equal": equal})


COMMANDS = {
    "quotient-eq": quotient_eq,
    "psi": expand("psi"),
    "psil": expand("psi_l"),
    "find-counterexample": find_counterexample,
}


SEGMENT_S = 0.25  # see ``Answers``
MAX_REFERENCE_RUNS = 8


def _reference_words(count=400):
    rng = random.Random(0)
    words = []
    for i in range(count):
        word = list(range(5 + i % 3)) * 2
        rng.shuffle(word)
        words.append(tuple(word))
    return words


REFERENCE_WORDS = _reference_words()


def reference():
    """A fixed pure-Python computation, about 25 ms on an idle 2-vCPU VM, of
    the kind chordcalc spends most of its time on: every rotation and
    reflection of a few hundred chord words, relabelled in order of first
    appearance and counted in a dictionary.  It never touches the library,
    so its time measures only how fast the machine runs such code at the
    moment."""
    seen = {}
    for word in REFERENCE_WORDS:
        for r in range(len(word)):
            rotated = word[r:] + word[:r]
            for w in (rotated, rotated[::-1]):
                label = {}
                key = tuple(label.setdefault(chord, len(label)) for chord in w)
                seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference_s(runs):
    """The mean time of ``runs`` runs of ``reference``.  The garbage
    collector is off meanwhile: a collection would traverse the library's
    caches, and so time the worker's heap instead of the machine."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(runs):
            reference()
        return (time.perf_counter() - start) / runs
    finally:
        gc.enable()


def cached_functions():
    """The ``lru_cache`` functions each layer defines, by layer name."""
    return {
        mod.__name__.rsplit(".", 1)[1]: [
            obj
            for obj in vars(mod).values()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
        ]
        for mod in (diagrams, algebra, surgery)
    }


class Answers:
    """The answers, the time each took and the reference runs between them.

    The reference runs before the first answer, then after the first answer
    that ends ``SEGMENT_S`` or more after the previous reference runs, and
    after the last answer: once per ``SEGMENT_S`` of answering since the
    previous runs, at least once and at most ``MAX_REFERENCE_RUNS`` times, so
    that a long answer is measured against a longer sample of the machine.
    Each answer gets the mean time of the reference runs just before and
    just after it, which met the machine in the state the answer met."""

    def __init__(self):
        self.answers, self.times = [], []
        self.refs = [reference_s(MAX_REFERENCE_RUNS // 2)]
        self.segment_of = []  # per answer, the index of the reference runs before it
        self.last_ref = time.perf_counter()

    def measure_reference(self):
        runs = int((time.perf_counter() - self.last_ref) / SEGMENT_S)
        self.refs.append(reference_s(max(1, min(MAX_REFERENCE_RUNS, runs))))
        self.last_ref = time.perf_counter()

    def add(self, text, seconds):
        self.answers.append(text)
        self.times.append(seconds)
        self.segment_of.append(len(self.refs) - 1)
        if time.perf_counter() - self.last_ref >= SEGMENT_S:
            self.measure_reference()

    def answer(self, line):
        """Run one command, adding each answer and its time; an exception is
        an answer too, and the client counts it as failed."""
        name, *args = line.split("\t")
        start = time.perf_counter()
        try:
            result = COMMANDS[name](args)
            if isinstance(result, str):
                result = [result]
            for text in result:
                self.add(text, time.perf_counter() - start)
                start = time.perf_counter()
        except Exception as exc:  # reported as a failed answer, never hidden
            self.add(f"error: {type(exc).__name__}: {exc}", time.perf_counter() - start)

    def reference_of_answers(self):
        """Per answer, the mean of the reference runs around it."""
        if self.segment_of and self.segment_of[-1] == len(self.refs) - 1:
            self.measure_reference()
        return [(self.refs[k] + self.refs[k + 1]) / 2 for k in self.segment_of]


def main(argv):
    if not Path(chordcalc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"chordcalc was imported from {chordcalc.__file__}, not from {SRC}")
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    caches = cached_functions()
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    lines = sys.stdin.read().splitlines()
    ready = time.monotonic()
    answers = Answers()
    for line in lines:
        answers.answer(line)
    out = {
        "ready": ready,
        "answers": answers.answers,
        "times": answers.times,
        "reference_s": answers.reference_of_answers(),
        "setup_reference_s": answers.refs[0],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": {
            layer: {
                "hits": sum(f.cache_info().hits for f in funcs),
                "misses": sum(f.cache_info().misses for f in funcs),
                "entries": sum(f.cache_info().currsize for f in funcs),
            }
            for layer, funcs in caches.items()
        },
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write(spans_path)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
