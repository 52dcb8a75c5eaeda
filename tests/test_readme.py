"""The README's library snippets run as written."""
import re
from pathlib import Path

import numpy as np

from eivpcr.simlab import gen_panel_ife

_README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```$", _README.read_text(), flags=re.M | re.S)


def test_library_snippets_run_in_order():
    blocks = _python_blocks()
    # the quickstart, the rank-unknown and the synthetic-controls snippets;
    # the fourth, the simulation lab's, runs 480 identification trials and
    # is left to the experiment tests
    assert len(blocks) == 4
    assert "run_experiment_identification" in blocks[3]
    namespace = {"outcomes_masked": gen_panel_ife(6, 4, 12, 2, 0.1, 0).panel.outcomes}
    for block in blocks[:3]:
        exec(compile(block, str(_README), "exec"), namespace)
    assert namespace["y_hat"].shape == (20,)
    assert 1 <= namespace["k"] <= 25
    result = namespace["result"]
    assert result.trajectory.shape == (4,) and np.isfinite(result.trajectory).all()
    assert result.diagnostics["ell_effective"] == min(result.diagnostics["k"], 4)
