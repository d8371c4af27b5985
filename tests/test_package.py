"""The package's public names, and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chordcalc


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from chordcalc import *", namespace)
    assert [name for name in chordcalc.__all__ if name not in namespace] == []


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse(Path(chordcalc.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(chordcalc.__all__) == public


PUBLIC_NAMES = [
    "CanonicalKey",
    "DEGREE_CEILING",
    "DoubleChordDiagram",
    "DoubleLinearDiagram",
    "FramedChordDiagram",
    "FramedLinearDiagram",
    "InvalidArgumentError",
    "InvalidDiagramError",
    "KINDS",
    "KindMismatchError",
    "ModuleElement",
    "RelationGenerator",
    "SmoothingGraph",
    "SumWitness",
    "UndecidedError",
    "beta",
    "beta_framed",
    "closure",
    "connected_sum_dlinear",
    "connected_sum_framed",
    "connected_sum_linear",
    "coproduct",
    "cut_open",
    "enumerate_diagrams",
    "from_key",
    "generate_2T_pairs",
    "generate_4T",
    "psi",
    "psi_l",
    "psi_l_module",
    "psi_l_summands",
    "psi_module",
    "psi_summands",
    "quotient_equal",
    "restrict",
    "search_counterexample",
    "smoothing_graph",
    "weight",
    "witness_quotient_split",
]


def test_the_public_names_are_pinned():
    # a name that joins or leaves the API has to be written here too
    assert len(PUBLIC_NAMES) == 39
    assert sorted(chordcalc.__all__) == PUBLIC_NAMES


FOOTPRINT = """
import sys

import chordcalc, chordcalc.cli

loaded = [name for name in ("dataclasses", "inspect", "argparse", "chordcalc.verify")
          if name in sys.modules]
print(loaded)
print(chordcalc.cli.main(["check-4t", "--kind", "double", "--degree", "2"]))
"""


def test_an_import_leaves_out_the_command_line_and_the_sweeps():
    # a fresh interpreter without site-packages, as a launch of the library
    # pays for it: no dataclasses, inspect or argparse, and the sweeps load
    # only when check-4t runs them
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert "w-kill: PASS" in lines and "2T: PASS" in lines
    assert lines[-1] == "0"
