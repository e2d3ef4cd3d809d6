#!/usr/bin/env python3
"""Record the results that bench/run.py checks into bench/reference.json:
the fitted parameters of the reference seed's recovery-mc inputs, and
the report digest of every demo seed the demo workload runs.

Run from the repository root on the commit whose results are the
reference:

    python3 bench/record_reference.py
"""

import json
import shutil

import run


def main():
    _, workloads = run.load_echofit()
    work_dir = run.OUT_DIR / "work-record"
    work_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for wl in (workloads.RecoveryMC(), workloads.Demo(work_dir)):
            reference[wl.name] = [wl.recorded(wl.run(inp))
                                  for inp in wl.reference_inputs()]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = run.BENCH_DIR / "reference.json"
    # One recorded value per line keeps diffs of the file readable.
    blocks = [f" {json.dumps(name)}: [\n"
              + ",\n".join(f"  {json.dumps(v)}" for v in values) + "\n ]"
              for name, values in reference.items()]
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
