#!/usr/bin/env python3
"""govdns study benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_study and perfbench_calibrate from this checkout's sources
(into .bench_build/), then runs whole studies back to back, one per process
(closed loop), until --seconds is used up, with a calibration of the
host's speed before the first study and after every study (see
normalize). Each study builds the workload's world (see
WORKLOADS), runs selection -> mining -> measurement -> report -> export
with 4 mining and 4 measurement workers, and is torn down. Every study's
ExportReportJson bytes are checked against the digest pinned for
(workload, seed) in perfbench/digests.json.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}: end-to-end metrics (times scaled to the reference host's speed;
setup_s as a median, the other times as trimmed means over the run's
studies) with --trace 0, per-layer metrics
(medians over the traced studies) with --trace 1. A traced run alternates
traced and untraced studies so it can report the tracing overhead. A run
that fails its checks still prints what it measured, with report_ok = 0,
and exits 1. The lines before it are a human-readable
table and the host record; the full result, with every study's spans, is
written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_study")
CALIBRATE = os.path.join(BUILD_DIR, "perfbench_calibrate")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")

BUILD_JOBS = 4
BUILD_TYPE = "RelWithDebInfo"
CHILD_TIMEOUT_S = 150
# Never start a study that could push the run past this many seconds.
RUN_LIMIT_S = 165

# Every workload measures the same world: the paper configuration's seed
# 2022 (fixed in perfbench_study) at a quarter of global scale. A world's
# cost depends strongly on its seed (the shared cut cache's infrastructure
# queries range over 4x between seeds), so the world is fixed and --seed
# varies the network weather instead: the hostile workloads overlay
# simnet::ChaosProfile::Hostile() realized from --seed. full-benign has no
# weather, so its input is the same for every seed. resume-report runs the
# same configuration as journaled-hostile and is checked against the same
# pinned digests.
SCALE = 0.25
WORKLOADS = {
    "full-benign": {"mode": "benign", "pins": "full-benign"},
    "journaled-hostile": {"mode": "journaled", "pins": "journaled-hostile"},
    "resume-report": {"mode": "resume", "pins": "journaled-hostile"},
}

# The CPU time one repetition of perfbench_calibrate's fixed work takes on
# the reference host (4-vCPU VM, Intel Xeon, g++ 12 RelWithDebInfo) in a
# typical period; it read 0.17-0.32 s over a day. The end-to-end times are
# scaled to this speed (see normalize()); the value only sets their unit.
NOMINAL_CALIBRATION_CPU_S = 0.25

ANALYZERS = ["count_per_year", "replication", "diversity", "d1ns_churn",
             "private_share", "providers", "delegations", "hijack",
             "consistency"]
DNS_MICRO = ["dns.name_compare_ns", "dns.name_copy_ns", "dns.name_parse_ns",
             "dns.name_to_string_ns", "dns.message_roundtrip_ns"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Pure helpers (exercised by perfbench/selftest.py) ----------------------

def self_times(spans):
    """Self time of every span: its duration minus the time its direct
    children cover. Children of one span never overlap (the recorder nests
    them strictly), so their durations simply add up."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def first_difference(a, b):
    """Index of the first byte where a and b differ (len of the shorter one
    when one is a prefix of the other); None when they are identical."""
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    """Mean after dropping the lowest and highest value when there are at
    least four. Study times on a shared host are often bimodal within one
    run; a mean tracks the mix more steadily than a median of a handful of
    values, and the trim keeps a single stalled study out of it."""
    values = sorted(values)
    if len(values) >= 4:
        values = values[1:-1]
    return statistics.fmean(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def normalize(before, after):
    """Speed factor of a study from the calibrations run just before and
    just after it: the nominal calibration CPU time over the mean of the
    two measured ones. A study's times multiplied by its factor read in
    seconds of the reference host, so a host that runs everything 30%
    slower for a while moves the study's times and the calibration's alike
    and leaves the scaled times where they were, while a faster or slower
    program still moves them. The calibration's CPU time, not its wall
    time, sets the factor: it tracks how fast a core runs and leaves out
    the moments a thread waits for one, which made the wall time of a
    short calibration twice as noisy as the studies it scales."""
    return ratio(NOMINAL_CALIBRATION_CPU_S,
                 (before["cpu_s"] + after["cpu_s"]) / 2)


# --- Build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no govdns sources next to perfbench/ "
            "(expected src/CMakeLists.txt); cannot build the program")
        sys.exit(2)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, check=True, timeout=840)
    return time.monotonic() - started


# --- One study --------------------------------------------------------------

def run_study(workload, seed, trace, tag, scale=None):
    """Runs one study in its own process and returns what it measured.
    `scale` overrides the workload's world scale (the self-checks use tiny
    worlds). The report bytes ride along under "_report"."""
    cfg = WORKLOADS[workload]
    work = os.path.join(WORK_DIR, "%s-%d-%s" % (workload, os.getpid(), tag))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    record_path = os.path.join(work, "record.json")
    cmd = [BINARY, "--mode", cfg["mode"], "--scale", str(scale or SCALE),
           "--weather-seed", str(seed), "--trace", "1" if trace else "0",
           "--work-dir", work,
           "--record", record_path]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    total_s = time.perf_counter() - started
    out = {"ok": proc.returncode == 0, "exit": proc.returncode,
           "trace": trace, "total_s": total_s,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if out["ok"]:
        with open(record_path) as f:
            out["record"] = json.load(f)
        with open(os.path.join(work, "report.json"), "rb") as f:
            report = f.read()
        out["report_sha256"] = sha256(report)
        out["_report"] = report
        prime_path = os.path.join(work, "prime.json")
        if os.path.exists(prime_path):
            with open(prime_path, "rb") as f:
                out["prime_difference"] = first_difference(f.read(), report)
    shutil.rmtree(work, ignore_errors=True)
    return out


def calibrate():
    """Runs perfbench_calibrate once: {wall_s, cpu_s, checksum} of its
    fixed work, plus elapsed_s, the whole process's wall time."""
    started = time.perf_counter()
    out = subprocess.run([CALIBRATE], stdout=subprocess.PIPE, check=True,
                         timeout=CHILD_TIMEOUT_S)
    cal = json.loads(out.stdout)
    cal["elapsed_s"] = time.perf_counter() - started
    return cal


def span_index(record):
    """Name -> span for the spans of one study record (names are unique
    per process)."""
    return {s["name"]: s for s in record["spans"]}


def duration(spans, name):
    s = spans.get(name)
    return s["end"] - s["start"] if s else 0.0


# --- Metrics ----------------------------------------------------------------

def end_to_end(studies, report_ok):
    """End-to-end metrics over the untraced studies that completed, their
    times scaled by each study's speed factors (normalize). When the run
    failed its checks, report_ok is 0 and the other figures are whatever
    the completed studies measured (none when no study did)."""
    untraced = [s for s in studies if s["ok"] and not s["trace"]]
    out = {"report_ok": 1 if report_ok else 0}
    if not untraced:
        return out

    def scaled(phase):
        return [duration(span_index(s["record"]), phase) * s["speed"]
                for s in untraced]
    out.update({
        "setup_s": median(scaled("setup")),
        "study_s": trimmed_mean(scaled("study")),
        "total_s": trimmed_mean([s["total_s"] * s["speed"]
                                 for s in untraced]),
        "cpu_s": trimmed_mean([s["cpu_s"] * s["speed"] for s in untraced]),
        "peak_rss_mb": trimmed_mean([s["peak_rss_mb"] for s in untraced]),
    })
    return out


def layer_metrics(record, peak_rss_mb):
    """Per-layer metrics of one traced study."""
    spans = span_index(record)
    c = record["counters"]
    micro = record["micro"]
    self_of = dict(zip([s["name"] for s in record["spans"]],
                       self_times(record["spans"])))
    m = {}
    m["worldgen.build_s"] = duration(spans, "worldgen")
    m["worldgen.domains"] = c["worldgen.domains"]
    m["worldgen.endpoints"] = c["worldgen.endpoints"]
    m["selection.s"] = duration(spans, "selection")
    m["selection.seeds"] = c["selection.seeds"]
    m["mining.s"] = duration(spans, "mining")
    m["mining.domains"] = c["mining.domains"]
    m["mining.domains_per_s"] = ratio(c["mining.domains"], m["mining.s"])

    domains = c["domains"]
    m["measurement.s"] = duration(spans, "measurement")
    m["measurement.cpu_s"] = spans["measurement"]["cpu"]
    m["measurement.domains_per_s"] = ratio(domains, m["measurement.s"])
    surface = c["measurement.surface_queries"]
    m["measurement.surface_queries"] = surface
    m["measurement.queries_per_domain"] = ratio(surface, domains)
    m["measurement.retries"] = c["measurement.retries"]
    m["measurement.timeouts"] = c["measurement.timeouts"]
    m["measurement.resolver_cpu_s"] = (m["measurement.cpu_s"] -
                                       micro["simnet.exchange_busy_s"])

    hits, misses = c["cut_cache.hits"], c["cut_cache.misses"]
    infra = c["cut_cache.infra_queries"]
    lookups = hits + misses
    m["cut_cache.hits"] = hits
    m["cut_cache.misses"] = misses
    m["cut_cache.hit_ratio"] = ratio(hits, lookups)
    m["cut_cache.negative_publishes"] = c["cut_cache.negative_publishes"]
    m["cut_cache.negative_evictions"] = c["cut_cache.negative_evictions"]
    m["cut_cache.infra_queries"] = infra
    # Share of the queries this study's cache layer drove that were the
    # measurement itself; 0 when the cache was never consulted.
    m["cut_cache.useful_ratio"] = (ratio(surface, surface + infra)
                                   if lookups else 0.0)

    exchanges = c["simnet.exchanges"]
    busy = micro["simnet.exchange_busy_s"]
    m["simnet.exchanges"] = exchanges
    m["simnet.timeouts"] = c["simnet.timeouts"]
    m["simnet.exchange_busy_s"] = busy
    m["simnet.exchange_us_mean"] = ratio(busy * 1e6,
                                         micro["simnet.decorated_exchanges"])

    for key in ("ckpt.commits", "ckpt.bytes_written", "ckpt.frame_rejections",
                "ckpt.results_loaded"):
        m[key] = c[key]
    m["ckpt.load_s"] = duration(spans, "ckpt.load")

    m["report.s"] = duration(spans, "report")
    m["report.cpu_s"] = spans["report"]["cpu"]
    for a in ANALYZERS:
        m["report.%s_s" % a] = duration(spans, "replay." + a)
    m["export.s"] = duration(spans, "export")
    m["export.bytes"] = c["export.bytes"]
    m["teardown.study_s"] = duration(spans, "teardown.study")
    m["teardown.world_s"] = duration(spans, "teardown.world")
    for key in DNS_MICRO:
        m[key] = micro[key]

    m["failed_share"] = ratio(c["failed_domains"], domains)
    m["rss.after_setup_mb"] = record["rss_mb"]["after_setup"]
    m["rss.after_study_mb"] = record["rss_mb"]["after_study"]
    m["rss.peak_mb"] = peak_rss_mb
    # The part of study_s no layer span covers.
    m["study.unattributed_s"] = self_of["study"]
    return m


def overhead_pairs(studies):
    """Traced minus untraced study_s of each back-to-back (traced,
    untraced) pair of completed studies."""
    return [duration(span_index(t["record"]), "study") -
            duration(span_index(u["record"]), "study")
            for t, u in zip(studies[0::2], studies[1::2])
            if t["ok"] and u["ok"] and t["trace"] and not u["trace"]]


def per_layer(studies, calibrations):
    """Medians of the per-layer metrics over the completed traced studies;
    {} when none completed. These times are as measured, not scaled;
    host.calibration_s (the median calibration CPU time of the run) says
    how fast the host ran meanwhile."""
    rows = [layer_metrics(s["record"], s["peak_rss_mb"])
            for s in studies if s["ok"] and s["trace"]]
    if not rows:
        return {}
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    out["trace.overhead_s"] = median(overhead_pairs(studies))
    out["host.calibration_s"] = median([c["cpu_s"] for c in calibrations])
    return out


# --- Correctness ------------------------------------------------------------

def pin_table(workload):
    """Key of the digest table for a workload: the configuration the bytes
    depend on besides the seed (scale / world seed)."""
    return "%s@%s/2022" % (WORKLOADS[workload]["pins"], SCALE)


def pinned_digest(workload, seed):
    """The pinned report digest of (workload, seed), or None. A table
    whose bytes do not depend on the seed pins them under "*"."""
    with open(DIGESTS) as f:
        table = json.load(f).get(pin_table(workload), {})
    return table.get(str(seed), table.get("*"))


def check_reports(workload, studies, pinned):
    """Returns (ok, notes). Every study must match the `pinned` digest when
    there is one, and all studies of the run must agree with each other
    (traced and untraced alike). In resume-report the resumed study's bytes
    must equal those of the journaled study that primed it."""
    notes = []
    ok = True
    digests = {s["report_sha256"] for s in studies if s["ok"]}
    if len(digests) > 1:
        ok = False
        notes.append("studies of one seed disagree: %s" % sorted(digests))
    if pinned is None:
        notes.append("no pinned digest for this seed; checked that the "
                     "run's studies agree")
    elif digests != {pinned}:
        ok = False
        notes.append("report digest %s != pinned %s" % (sorted(digests),
                                                        pinned))
    for s in studies:
        if not s["ok"]:
            ok = False
            notes.append("a study exited with status %d" % s["exit"])
            continue
        diff = s.get("prime_difference")
        if diff is not None:
            ok = False
            notes.append("resumed report differs from the journaled one at "
                         "byte %d" % diff)
        if WORKLOADS[workload]["mode"] == "resume":
            ok = resume_notes(s["record"]["counters"], notes) and ok
    return ok, notes


def resume_notes(c, notes):
    """The resumed study reads the journal its own set-up primed moments
    before: every frame must load and nothing may be measured again. (The
    journaled-hostile study never reads its journal back; a traced study
    re-reads it in perfbench_study, which fails on any rejected frame.)"""
    bad = []
    if c["ckpt.frame_rejections"] != 0:
        bad.append("rejected %d frame(s)" % c["ckpt.frame_rejections"])
    if c["ckpt.results_loaded"] != c["domains"]:
        bad.append("restored %d of %d results" % (c["ckpt.results_loaded"],
                                                  c["domains"]))
    if c["simnet.exchanges"] != 0:
        bad.append("made %d exchanges" % c["simnet.exchanges"])
    notes += ["resumed study " + b for b in bad]
    return not bad


def unmet_expected_zeros(workload, metrics):
    """Per-layer metrics baseline.json predicts to be 0 on this workload
    that were not."""
    with open(BASELINE) as f:
        zeros = json.load(f)["expected_zeros"].get(workload, [])
    return [n for n in zeros if metrics.get(n) != 0]


# --- Main -------------------------------------------------------------------

def host_record(workload, seed, studies, build_s):
    first = next((s["record"] for s in studies if s["ok"]), None)
    rec = {"nproc": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version(), "workload": workload,
           "seed": seed, "scale": SCALE, "build_s": build_s}
    if first is not None:
        rec["compiler"] = first["host"]["compiler"]
        rec["build_type"] = first["host"]["build_type"]
        for key in ("world_seed", "chaos", "mine_workers", "measure_workers"):
            rec[key] = first["config"][key]
    return rec


def spec_units():
    """Metric name -> unit for the end-to-end and per-layer metrics
    BENCHMARK.json declares."""
    with open(SPEC) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_s = build()
    selftest_stamp = os.path.join(BUILD_DIR, "selftest.ok")
    binary_id = "%d:%d" % (os.stat(BINARY).st_mtime_ns,
                           os.stat(BINARY).st_size)
    if not os.path.exists(selftest_stamp) or \
            open(selftest_stamp).read() != binary_id:
        import selftest
        if not selftest.run_all():
            log("perfbench: self-checks failed")
            sys.exit(1)
        with open(selftest_stamp, "w") as f:
            f.write(binary_id)

    os.makedirs(WORK_DIR, exist_ok=True)
    studies = []
    started = time.monotonic()
    # Calibrations and studies alternate, a calibration first and last.
    calibrations = [calibrate()]
    min_studies = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - started
        if len(studies) >= min_studies:
            estimate = (median([s["total_s"] for s in studies]) +
                        median([c["elapsed_s"] for c in calibrations]))
            if elapsed + estimate > min(args.seconds, RUN_LIMIT_S):
                break
        # A traced run alternates traced and untraced studies, traced first.
        trace = bool(args.trace) and len(studies) % 2 == 0
        study = run_study(args.workload, args.seed, trace, str(len(studies)))
        calibrations.append(calibrate())
        study["speed"] = normalize(calibrations[-2], calibrations[-1])
        studies.append(study)
        if not study["ok"]:
            break

    ok, notes = check_reports(args.workload, studies,
                              pinned_digest(args.workload, args.seed))
    if len({c["checksum"] for c in calibrations}) > 1:
        ok = False
        notes.append("calibration checksums disagree: the reference work "
                     "is not deterministic")
    good = [s for s in studies if s["ok"]]
    domains = good[0]["record"]["counters"]["domains"] if good else 1
    attempted = domains * len(studies)
    failed = domains * (len(studies) - len(good)) if ok else attempted

    units = spec_units()[1 if args.trace else 0]
    metrics = (per_layer(studies, calibrations) if args.trace
               else end_to_end(studies, ok))
    if ok and set(metrics) != set(units):
        raise SystemExit("perfbench: metrics %s do not match "
                         "BENCHMARK.json %s" % (sorted(metrics),
                                                sorted(units)))
    if args.trace and metrics:
        notes += ["expected zero not met: %s = %s" % (n, metrics[n])
                  for n in unmet_expected_zeros(args.workload, metrics)]
        notes.append("trace.overhead_s per pair: %s" % " ".join(
            "%+.3f" % d for d in overhead_pairs(studies)))
    host = host_record(args.workload, args.seed, studies, build_s)
    for note in notes:
        print("note: " + note)
    print("host: " + json.dumps(host, sort_keys=True))
    print("studies: %d (%d traced), %d query-list domains each" %
          (len(studies), sum(1 for s in studies if s["trace"]), domains))
    print("calibration cpu_s: %s (nominal %.3f)" % (" ".join(
        "%.3f" % c["cpu_s"] for c in calibrations), NOMINAL_CALIBRATION_CPU_S))
    if good:
        c = good[0]["record"]["counters"]
        print("failed_share: %.6f (%d of %d domains quarantined or degraded)"
              % (ratio(c["failed_domains"], domains), c["failed_domains"],
                 domains))
        rss = good[0]["record"]["rss_mb"]
        print("rss: after setup %.1f MiB, after study %.1f MiB, peak %.1f MiB"
              % (rss["after_setup"], rss["after_study"],
                 good[0]["peak_rss_mb"]))
    for name in sorted(metrics):
        print("  %-36s %16.6f %s" % (name, metrics[name], units[name]))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    result_path = os.path.join(
        RESULTS_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                 args.trace))
    with open(result_path, "w") as f:
        json.dump({"host": host, "correct": ok, "notes": notes,
                   "metrics": metrics, "calibrations": calibrations,
                   "studies": [{k: v for k, v in s.items()
                                if not k.startswith("_")} for s in studies]},
                  f)

    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
