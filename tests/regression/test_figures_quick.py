"""Pinned output of ``repro figure all --quick``.

``figures_quick.txt`` holds the exact stdout of ``repro figure all
--quick``: every figure's table at the quick scale, in CLI order, each
followed by a blank line.  The serial run must reproduce it byte for
byte, a single figure must print its own section, and a ``--workers 2``
run must print the same bytes from exactly one process pool however
many figures it prints.

Regenerate after an *intentional* model change only, by the rule in
``tests/regression/golden.py``:

    PYTHONPATH=src python -m repro figure all --quick > tests/regression/figures_quick.txt

and review the diff like any other code change.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import scheduler

PINNED = Path(__file__).with_name("figures_quick.txt").read_text()

#: ``repro figure`` names in the order ``all`` prints them.
FIGURE_NAMES = (
    "fig01",
    "fig03",
    "fig04a",
    "fig04b",
    "fig04c",
    "fig05",
    "fig07",
    "fig11a",
    "fig11b",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
)

#: One figure's ``repro figure NAME --quick`` stdout, cut from the pin.
SECTIONS = {
    name: section + "\n\n"
    for name, section in zip(FIGURE_NAMES, PINNED.split("\n\n"))
}


def test_pin_has_one_section_per_figure():
    assert PINNED.endswith("\n\n")
    assert len(PINNED.split("\n\n")) == len(FIGURE_NAMES) + 1
    assert "".join(SECTIONS.values()) == PINNED


@pytest.mark.parametrize("name", ["all", "fig01", "fig05"])
def test_serial_quick_output_matches_pin(name, capsys):
    assert main(["figure", name, "--quick"]) == 0
    assert capsys.readouterr().out == (PINNED if name == "all" else SECTIONS[name])


@pytest.mark.parametrize("name", ["fig12", "all"])
def test_workers_build_one_pool_per_invocation(name, monkeypatch, capsys):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", CountingPool)
    assert main(["figure", name, "--quick", "--workers", "2"]) == 0
    expected = PINNED if name == "all" else SECTIONS[name]
    assert capsys.readouterr().out == expected
    assert pools == [2]
