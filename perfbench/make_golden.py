"""Write the reference result documents of the defaults workload.

    python3 perfbench/make_golden.py

Runs every registered scenario from its default config, convergence gate
on, and stores the CLI's JSON document in perfbench/golden/<scenario>.json.
The references pin the outputs of the commit that wrote them; rerun this
only when a change is meant to alter a result, and say so in its review.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from checkout import import_cavityconv


def main() -> None:
    cavityconv = import_cavityconv()
    from cavityconv import cli
    from workloads import GOLDEN_DIR

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, _ in cavityconv.list_scenarios():
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps({"scenario": name}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", str(cfg)])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            (GOLDEN_DIR / f"{name}.json").write_text(out.getvalue())


if __name__ == "__main__":
    main()
