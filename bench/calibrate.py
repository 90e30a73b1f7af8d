"""How fast the host runs right now, measured without regio.

    python3 bench/calibrate.py OUT

Times ``REPS`` runs of a fixed computation shaped like regio's hot loops and
writes their wall times to OUT as JSON. ``run.py`` starts one of these
between its samples and scales its times by how fast they ran: on a shared
host the whole machine drifts faster and slower for minutes at a time, and
that drift moves whole runs. The file never imports regio, so no change to
regio can change what it measures.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

REPS = 4


def kernel() -> float:
    """Wall seconds of one fixed computation.

    Half of it is the prefix-sum split search of ``gbrt.best_split`` on
    arrays of 4000, 300 and 30 rows; half is per-region Python work on
    dicts, strings and floats, as in series, formulas and disaggregation.
    """
    rng = np.random.default_rng(20250508)
    started = time.perf_counter()
    for n, reps in ((4000, 20), (300, 100), (30, 400)):
        X = rng.random((n, 5))
        r = rng.random(n)
        for _ in range(reps):
            for j in range(X.shape[1]):
                order = np.argsort(X[:, j], kind="stable")
                xs = X[order, j]
                rs = r[order]
                cut = np.nonzero(xs[1:] != xs[:-1])[0]
                csum = np.cumsum(rs)
                n_left = cut + 1
                sse = csum[cut] ** 2 / n_left + (csum[-1] - csum[cut]) ** 2 / (n - n_left)
                float(sse[int(np.argmax(sse))])
    codes = [f"LAU{i:06d}" for i in range(4000)]
    values = rng.random(4000).tolist()
    for _ in range(15):
        totals: dict[str, float] = {}
        for code, value in zip(codes, values):
            totals[code[:6]] = totals.get(code[:6], 0.0) + value
        shares = {code: value / totals[code[:6]] for code, value in zip(codes, values)}
        sum(shares.values())
    return time.perf_counter() - started


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps([kernel() for _ in range(REPS)]), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
