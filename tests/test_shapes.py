"""The shape table: the corpus core's deposit, routed each way a Ponzi
contract routes it, gets the label as its verdict in every prompt mode.

The mock backend calls a contract Ponzi when the prompt shows a loop and a
participant-indexed payout. Raw mode shows the whole source, so a full or
no-taint verdict that misses a Ponzi means the slice dropped the payout:
the deposit's taint never reached the state it reads. A shape that is
wrong today is marked with the ROADMAP item that fixes it.
"""

from __future__ import annotations

import pytest

import programs
from ponzilens.detect import MODES, LlmConfig, detect_contract
from ponzilens.ingest import load_ast

_ARGUMENTS = "taint does not follow arguments into parameters"
_WRONG = {
    "helper": f"item 3: {_ARGUMENTS}",
    "super": f"items 2 and 3: `super.f` makes no call site, and {_ARGUMENTS}",
    "overload": f"item 3: {_ARGUMENTS}",
}


def _cases():
    for shape in programs.SHAPES:
        for ponzi in (True, False):
            wrong = _WRONG.get(shape) if ponzi else None
            marks = pytest.mark.xfail(reason=wrong, strict=True) if wrong else ()
            label = "ponzi" if ponzi else "twin"
            yield pytest.param(shape, ponzi, marks=marks, id=f"{shape}-{label}")


@pytest.mark.parametrize(("shape", "ponzi"), _cases())
def test_every_mode_gives_the_label(shape, ponzi):
    unit = load_ast(programs.shape_unit(shape, ponzi)[1])
    verdicts = {
        mode: detect_contract(unit, LlmConfig(), mode, repeats=1).final_verdict for mode in MODES
    }
    assert verdicts == dict.fromkeys(MODES, ponzi)
