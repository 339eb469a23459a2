#!/usr/bin/env python3
"""Pins report digests for the benchmark's seeds.

    python3 perfbench/pin.py SEED [SEED ...]

Runs one untraced study of journaled-hostile per seed (resume-report
shares its table) and one of full-benign, whose bytes do not depend on the
seed, and records the SHA-256 of each ExportReportJson document in
perfbench/digests.json (see run.pin_table). A digest that is already pinned
must be reproduced. Re-pin only when a change is meant to alter the report
bytes.
"""

import json
import os
import sys

import run


def main():
    seeds = [int(a) for a in sys.argv[1:]]
    if not seeds:
        sys.exit(__doc__)
    run.build()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    pins = {}
    if os.path.exists(run.DIGESTS):
        with open(run.DIGESTS) as f:
            pins = json.load(f)
    for workload, keys in (("full-benign", ["*"]),
                           ("journaled-hostile", [str(s) for s in seeds])):
        table = pins.setdefault(run.pin_table(workload), {})
        for key in keys:
            study = run.run_study(workload, seeds[0] if key == "*" else
                                  int(key), False, "pin")
            if not study["ok"]:
                sys.exit("pin: %s seed %s failed" % (workload, key))
            old = table.get(key)
            if old is not None and old != study["report_sha256"]:
                sys.exit("pin: %s seed %s no longer reproduces %s" %
                         (workload, key, old))
            table[key] = study["report_sha256"]
            run.log("pin: %s seed %s %s" % (workload, key,
                                            study["report_sha256"]))
    with open(run.DIGESTS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
