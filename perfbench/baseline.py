#!/usr/bin/env python3
"""Per-call listing: one timed call for each row of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Each row builds its complex fresh, then times only the named call, once,
in this process. Rows are named as in the table. The tier-1 pytest row is
not reproduced here. The whole listing takes about 35 s on a 2-CPU machine.
"""

from __future__ import annotations

import json
from time import perf_counter

import run


def rows(hdx):
    """(name, set-up returning the call's arguments, the call)."""

    def regular(q, n):
        X = hdx.projective_flag(q, n)
        return X, hdx.regularity(X)

    return [
        ("expansion(complete(7,2), 1, coboundary)",
         lambda: (hdx.complete(7, 2),), lambda X: hdx.expansion(X, 1, "coboundary")),
        ("expansion(complete(7,2), 1, cocycle)",
         lambda: (hdx.complete(7, 2),), lambda X: hdx.expansion(X, 1, "cocycle")),
        ("cosystole(cycle(20), 1)",
         lambda: (hdx.cycle(20),), lambda X: hdx.cosystole(X, 1)),
        ("mixing_check_all(projective_flag(2,3))",  # 4^14 pairs, above the default cap
         lambda: regular(2, 3), lambda X, R: hdx.mixing_check_all(X, R, cap=4 ** 14)),
        ("skeleton_alpha(complete(16,2))",
         lambda: (hdx.complete(16, 2),), hdx.skeleton_alpha),
        ("lambda_max(projective_flag(2,4))",
         lambda: regular(2, 4), hdx.lambda_max),
        ("space_basis(projective_flag(3,4), 2, cocycles)",
         lambda: (hdx.projective_flag(3, 4),), lambda X: hdx.space_basis(X, 2, "cocycles")),
        ("criterion_report(projective_flag(2,3))",
         lambda: (hdx.projective_flag(2, 3),), hdx.criterion_report),
    ]


def main() -> int:
    hdx = run.load_hdx()
    listing = []
    for name, make, call in rows(hdx):
        args = make()
        t0 = perf_counter()
        call(*args)
        seconds = perf_counter() - t0
        listing.append({"call": name, "seconds": seconds})
        print(f"{name:50s} {seconds:10.3f} s", flush=True)
    print(json.dumps({"environment": run.environment(), "listing": listing}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
