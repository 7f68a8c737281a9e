"""Every demo runs to completion in-process; the two that call the tuple
counter and the special-index search print exactly what they printed
before those were rewritten as block sieves."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "02_tuple_census.py": "1845794fc2494025e2da948bf3d8e987848a98aca92c4ff0669aec2ecadae855",
    "04_search_witness.py": "bc7e05c44197181281fc1cbb1c9089cbda463cd2770acbaf88ee44ce22e29f2a",
}


def test_all_demos_found():
    assert len(DEMOS) == 7
    assert set(STDOUT_SHA256) <= {d.name for d in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[demo.name]
