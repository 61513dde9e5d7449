"""The demos run against the package as it is."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _deviations(out: str, prefix: str) -> list:
    return [float(line.split()[-1]) for line in out.splitlines() if line.lstrip().startswith(prefix)]


def test_symmetries_demo(capsys):
    runpy.run_path(str(DEMOS / "symmetries.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "16 precomputed diagonals serving 316 translations" in out
    # the FFT pipeline reproduces the dense operator for each translation,
    # and every table diagonal its direct computation
    pipeline = _deviations(out, "translation (")
    assert len(pipeline) == 3 and max(pipeline) < 1e-12
    transforms = _deviations(out, "M2F / F2L vs")
    assert len(transforms) == 1 and transforms[0] < 1e-14
    table = _deviations(out, "table diagonals")
    assert len(table) == 1 and table[0] < 1e-13
