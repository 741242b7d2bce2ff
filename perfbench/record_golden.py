#!/usr/bin/env python3
"""Write golden.json: a digest of every call's exact result, for the golden seed.

    python3 perfbench/record_golden.py

Run it only on a commit whose results are trusted. A later run with
`--seed` equal to `run.GOLDEN_SEED` fails every call whose digest differs.
"""

from __future__ import annotations

import json
import os
import shutil

import run


def main() -> int:
    run.load_hdx()
    from workloads import WORKLOADS

    digests = {}
    workdir = run.ROOT / ".bench_work" / f"golden-{os.getpid()}"
    try:
        for name, wl in WORKLOADS.items():
            (workdir / name).mkdir(parents=True)
            gen = wl.generate(run.GOLDEN_SEED, "full", str(workdir / name))
            records, _ = run.run_pass(wl.calls(gen, wl.build(gen)))
            failed, digests[name], _, problems = run.gate(records, None)
            if failed:
                raise SystemExit("\n".join(problems))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"seed": run.GOLDEN_SEED, "digests": digests}, indent=1, sort_keys=True)
    run.GOLDEN.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
