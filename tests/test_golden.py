"""Byte-identical CLI outputs, pinned across rewrites of verify and flatten.

The expected files in ``golden/`` were written by the set-based expansion
and the decoding ``verify`` that the array versions replaced.  The two
seeded inputs are ``evograph generate --nodes 7 --times 4 --edges 16
--seed 3`` and ``evograph generate --nodes 7 --times 4 --edges 14 --seed 5
--undirected``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from evograph.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _expected(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_verify_random_golden(capsys):
    assert main(["verify", "--random", "20", "--seed", "0"]) == 0
    assert capsys.readouterr().out == _expected("verify_random_20_seed_0.txt")


@pytest.mark.parametrize("name, flags", [
    ("demo", []),
    ("directed", []),
    ("undirected", ["--undirected"]),
])
def test_flatten_golden(capsys, name, flags):
    assert main(["flatten", str(GOLDEN / f"{name}.tsv"), *flags]) == 0
    assert capsys.readouterr().out == _expected(f"flatten_{name}.txt")
