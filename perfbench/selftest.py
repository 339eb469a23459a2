#!/usr/bin/env python3
"""Self-checks for the benchmark's own logic.

    python3 perfbench/selftest.py

run.py runs them once after every build of perfbench_study. They check:
  - span self-time arithmetic on a hand-made span tree;
  - the host-speed scaling of study times by the calibrations around them;
  - that the byte comparison and the report check catch a single corrupted
    byte in a real report, and that the report check fails a resumed study
    that rejected a frame, restored too few results or measured again;
  - that TimingTransport (the traced run) leaves report bytes unchanged, and
    that a resumed study reproduces the journaled study's bytes, on tiny
    worlds of both chaos settings.
"""

import sys

import run

# Scale 0.02 of the seed-2022 world is under a second per study; some
# nearby scales (0.03) trip a cut-cache blow-up and take 40 s.
SELFTEST_SCALE = 0.02
SELFTEST_SEED = 7


def check_self_times():
    # study 0..10 has children selection 1..4 and report 5..6; selection has
    # a child 2..3. Self times: 10-3-1 = 6, 3-1 = 2, 1, 1.
    spans = [
        {"name": "study", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "selection", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "inner", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "report", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    got = run.self_times(spans)
    return [round(x, 9) for x in got] == [6.0, 2.0, 1.0, 1.0]


def check_normalize():
    # Calibrations at 1.5x and 2.5x the nominal time (mean 2x) halve the
    # study's times; at the nominal time they leave them as they are.
    nominal = run.NOMINAL_CALIBRATION_CPU_S
    halved = run.normalize({"cpu_s": 1.5 * nominal}, {"cpu_s": 2.5 * nominal})
    same = run.normalize({"cpu_s": nominal}, {"cpu_s": nominal})
    return abs(halved - 0.5) < 1e-12 and abs(same - 1.0) < 1e-12


def check_first_difference():
    return (run.first_difference(b"abc", b"abc") is None and
            run.first_difference(b"abc", b"abd") == 2 and
            run.first_difference(b"ab", b"abc") == 2)


def corrupt(data, index):
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def check_studies():
    """Tiny-world studies: traced == untraced bytes, resumed == journaled
    bytes, and a corrupted byte is caught by both checks."""
    ok = True
    run.os.makedirs(run.WORK_DIR, exist_ok=True)
    for workload in ("full-benign", "journaled-hostile"):
        # After the loop, `plain` is the journaled-hostile study that the
        # resume-report study below must reproduce.
        plain = run.run_study(workload, SELFTEST_SEED, False, "self-u",
                              SELFTEST_SCALE)
        traced = run.run_study(workload, SELFTEST_SEED, True, "self-t",
                               SELFTEST_SCALE)
        if not (plain["ok"] and traced["ok"]):
            run.log("selftest: %s study failed" % workload)
            return False
        if plain["report_sha256"] != traced["report_sha256"]:
            run.log("selftest: TimingTransport changed %s report bytes at "
                    "byte %s" % (workload, run.first_difference(
                        plain["_report"], traced["_report"])))
            ok = False
    resumed = run.run_study("resume-report", SELFTEST_SEED, False, "self-r",
                            SELFTEST_SCALE)
    if not resumed["ok"] or resumed["prime_difference"] is not None:
        run.log("selftest: resumed report differs from the journaled one")
        return False
    if resumed["report_sha256"] != plain["report_sha256"]:
        run.log("selftest: resume-report bytes != journaled-hostile bytes")
        ok = False

    report = resumed["_report"]
    where = len(report) // 2
    bad = corrupt(report, where)
    if run.first_difference(bad, report) != where:
        run.log("selftest: first_difference missed a corrupted byte")
        ok = False
    if run.sha256(bad) == run.sha256(report):
        run.log("selftest: digest missed a corrupted byte")
        ok = False
    # The run-level check accepts the real study, with and without its pin,
    # and rejects a wrong pin, a resumed study whose bytes differ from its
    # primer, studies that disagree with each other, and a resumed study
    # that rejected a frame, restored too few results or measured again.
    digest = resumed["report_sha256"]
    forged = dict(resumed, prime_difference=where)
    other = dict(resumed, report_sha256=run.sha256(bad))
    cases = [("real", [resumed], None, True),
             ("pinned", [resumed], digest, True),
             ("wrong pin", [resumed], run.sha256(bad), False),
             ("primer differs", [forged], None, False),
             ("disagreeing", [resumed, other], None, False)]
    counters = resumed["record"]["counters"]
    for name, key, value in (
            ("rejected frame", "ckpt.frame_rejections", 1),
            ("short restore", "ckpt.results_loaded", counters["domains"] - 1),
            ("re-measured", "simnet.exchanges", 1)):
        record = dict(resumed["record"], counters=dict(counters, **{key: value}))
        cases.append((name, [dict(resumed, record=record)], digest, False))
    for name, studies, pinned, want in cases:
        if run.check_reports("resume-report", studies, pinned)[0] != want:
            run.log("selftest: check_reports gave %s on the %s case" %
                    (not want, name))
            ok = False
    # A failed run still reports report_ok, as 0.
    resumed["speed"] = 1.0
    if run.end_to_end([resumed], False)["report_ok"] != 0:
        run.log("selftest: a failed run did not report report_ok = 0")
        ok = False
    return ok


def run_all():
    checks = [("span self-time arithmetic", check_self_times),
              ("host-speed scaling", check_normalize),
              ("byte comparison", check_first_difference),
              ("report bytes under tracing, resume and corruption",
               check_studies)]
    ok = True
    for name, check in checks:
        passed = check()
        run.log("selftest: %-50s %s" % (name, "ok" if passed else "FAILED"))
        ok = ok and passed
    return ok


if __name__ == "__main__":
    run.build()
    sys.exit(0 if run_all() else 1)
