"""Record perfbench/golden.json: the answer digest of every job key a
workload can generate for any seed, plus the random-input jobs of the
default seed.  Run it only on code whose answers are known to be right:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys

import run


def record() -> dict:
    sys.path.insert(0, str(run.SRC))
    modules = run.import_modp()
    golden = {}
    for name, cls in run.WORKLOADS.items():
        workload = cls(modules, run.TMP_DIR)
        workload.prepare()
        try:
            workload.begin_pass()
            pool = workload.pool()
            keys = {job.key for job in pool}
            jobs = pool + [j for j in workload.jobs(run.DEFAULT_SEED) if j.key not in keys]
            table: dict[str, str] = {}
            for job in jobs:
                if job.prep is not None:
                    job.prep()
                raw, ok = job.run()
                d = run.digest(job.canon(raw))
                if not ok or table.setdefault(job.key, d) != d:
                    raise SystemExit(f"{name}: {job.key} fails its own check")
            golden[name] = dict(sorted(table.items()))
        finally:
            workload.close()
    return golden


if __name__ == "__main__":
    run.GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
