"""Every script in `demos/` prints exactly its golden stdout in
`tests/data/demos/`.  To refresh a golden file after an intended change, run
the demo and write its stdout there."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in GOLDEN.glob("*.stdout")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_byte_identical_to_golden(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{demo.stem}.stdout").read_bytes()
