"""Import cavityconv from the checkout this benchmark sits in, never from
anywhere else on the path."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout holds no importable cavityconv sources."""


def import_cavityconv():
    sys.path.insert(0, str(SRC))
    try:
        import cavityconv
    except ImportError as exc:
        raise CheckoutError(f"cannot import cavityconv from {SRC}: {exc}") from None
    where = Path(cavityconv.__file__).resolve()
    if SRC not in where.parents:
        raise CheckoutError(f"cavityconv was imported from {where}, not from {SRC}")
    return cavityconv
