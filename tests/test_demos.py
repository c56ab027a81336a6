import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.slow
def test_demos_run(capsys):
    # in-process, so the suite's RuntimeWarning filter applies to them
    runpy.run_path(str(DEMOS / "02_minimum_alphabet.py"), run_name="__main__")
    assert "saturation=0" in capsys.readouterr().out
    runpy.run_path(str(DEMOS / "03_scalability_alpha_star.py"),
                   run_name="__main__")
    families = re.findall(r"^ +(\w+) +theta_n = ",
                          capsys.readouterr().out, flags=re.M)
    assert families == ["cycle", "star", "complete"]
