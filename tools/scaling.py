"""The command line and host-speed reference of the `*_scaling.py` tools.

Each tool names its cases and the row each one reads; `main` imports
`localaut` from CHECKOUT/src, lists the rows and prints one JSON object:
the rows, and the median time of the `perfbench/hostspeed.py` reference
kernel of this repository, taken before and after the rows, so two
checkouts timed on a shared host can be set side by side.
"""
from __future__ import annotations

import argparse
import importlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import hostspeed  # noqa: E402

KERNEL_CALLS = 30


def kernel_median() -> float:
    hostspeed.kernel()  # the first call runs cold
    times = []
    for _ in range(KERNEL_CALLS):
        t0 = time.perf_counter()
        hostspeed.kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(doc: str, rows) -> int:
    """Run the tool whose docstring is doc and whose rows(la) yields its
    rows on the package la."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    checkout = parser.parse_args().checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    la = importlib.import_module("localaut")
    before = kernel_median()
    table = list(rows(la))
    print(json.dumps({
        "checkout": str(checkout),
        "python": platform.python_version(),
        "hostspeed_kernel_median_s": {"before": round(before, 5), "after": round(kernel_median(), 5)},
        "rows": table,
    }, indent=1))
    return 0
