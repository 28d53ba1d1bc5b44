"""The README's "Library sketch" runs as printed and shows what its comment says."""

import contextlib
import io
import math
import re
from pathlib import Path

from cavityconv import effective_xi, epr_metrics

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_prints_the_pair_state_variances():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, str(README), "exec"), namespace)
    metrics = epr_metrics(namespace["state"])
    assert repr(metrics) in printed.getvalue()
    # the sketch evolves for tau = 2e-4 s
    expected = math.exp(-2.0 * abs(effective_xi(namespace["params"])) * 2e-4) / 2.0
    assert abs(metrics.var_x_minus - expected) < 1e-9
    assert abs(metrics.var_p_plus - expected) < 1e-9
