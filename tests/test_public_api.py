"""The package's public surface: __all__ lists exactly what __init__ imports."""

import ast
import importlib
from pathlib import Path

import pytest

import naimark_lab

REMOVED = {
    "hermitian_eigensystem": "naimark_lab.linalg",
    "partial_trace": "naimark_lab.linalg",
    "von_neumann_entropy": "naimark_lab.linalg",
    "posterior_distribution": "naimark_lab.povm",
}


def imported_public_names():
    tree = ast.parse(Path(naimark_lab.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_matches_the_imported_names():
    assert len(naimark_lab.__all__) == len(set(naimark_lab.__all__))
    assert set(naimark_lab.__all__) == imported_public_names()
    assert all(hasattr(naimark_lab, name) for name in naimark_lab.__all__)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_not_importable(name):
    assert not hasattr(naimark_lab, name)
    assert not hasattr(importlib.import_module(REMOVED[name]), name)
