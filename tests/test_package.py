"""The package's public names."""

import ast
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
