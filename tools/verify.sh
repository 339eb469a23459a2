#!/usr/bin/env bash
# Tier-1 verification, twice: a normal release build and an ASan+UBSan
# build. The sanitized pass exists because the chaos model deliberately
# feeds the wire-format parsers corrupted datagrams; memory bugs there must
# fail CI, not just crash probabilistically.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
# Hard wall-clock cap on every ctest invocation: the degradation model
# (DESIGN.md §6g) exists precisely because hangs happen, and the harness
# that tests it must not itself hang CI when a regression wedges a worker.
CTEST_TIMEOUT=${CTEST_TIMEOUT:-900}

echo "==> tier-1: release build + ctest"
cmake --preset release >/dev/null
cmake --build --preset release -j "${JOBS}"
timeout "${CTEST_TIMEOUT}" ctest --preset release -j "${JOBS}"

echo "==> smoke: BENCH_trajectory.json rows are complete"
# The perf trajectory (one row per perf change, the machine-readable form of
# the CHANGES.md before/after tables) must parse and carry every key.
python3 - BENCH_trajectory.json <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
assert rows, "no rows"
row_keys = {"pr", "parent_commit", "claim", "host", "pairs", "workloads"}
host_keys = {"cores", "compiler", "build_type"}
stat_keys = {"median", "q1", "q3"}
for row in rows:
    assert row_keys <= set(row), (row.get("pr"), sorted(row_keys - set(row)))
    assert {"metric", "workload"} <= set(row["claim"]), row["pr"]
    assert host_keys <= set(row["host"]), row["pr"]
    assert row["workloads"], row["pr"]
    for workload, metrics in row["workloads"].items():
        assert {"pairs", "metrics"} <= set(metrics), (row["pr"], workload)
        for metric, sides in metrics["metrics"].items():
            for side in ("parent", "change"):
                assert stat_keys <= set(sides[side]), (row["pr"], workload,
                                                      metric, side)
print(f"smoke: BENCH_trajectory.json {len(rows)} rows OK "
      f"(PRs {', '.join(str(r['pr']) for r in rows)})")
EOF

echo "==> smoke: govdns_study observability exports parse"
# The release binary must produce valid JSON from --json/--metrics/--trace
# on a small world, and the metrics document must carry the measurement
# counters — a cheap end-to-end check that the obs layer is actually wired.
# The standalone --quarantine-report document must be the report's own
# quarantine object.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "${SMOKE_DIR}"' EXIT
./build/tools/govdns_study --scale 0.01 --no-report \
  --json "${SMOKE_DIR}/report.json" \
  --metrics "${SMOKE_DIR}/metrics.json" \
  --trace "${SMOKE_DIR}/trace.json" \
  --quarantine-report "${SMOKE_DIR}/quarantine.json" 2>/dev/null
python3 - "${SMOKE_DIR}" <<'EOF'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
report = json.loads((d / "report.json").read_text())
assert "resilience" in report and "profile" in report, sorted(report)
assert any(p["name"] == "measurement" for p in report["profile"])
quarantine = json.loads((d / "quarantine.json").read_text())
assert quarantine == report["quarantine"], (quarantine, report["quarantine"])
metrics = json.loads((d / "metrics.json").read_text())
counters = {c["name"] for c in metrics["counters"]}
assert "measure.queries" in counters, sorted(counters)
assert "mining.domains" in counters, sorted(counters)
trace = json.loads((d / "trace.json").read_text())
assert trace["folded_domains"] >= len(trace["domains"])
print("smoke: report/metrics/trace exports parse OK")
EOF

echo "==> smoke: govdns_study rejects bad flag values before building a world"
# A negative, NaN or non-numeric scale, a flag with no value, and a vantage
# roster past worldgen::kMaxDefaultVantages must each exit 2 with the usage
# line, and must not get as far as the "building world" progress line.
for ARGS in "--scale -1" "--scale nan" "--scale abc" "--scale" \
            "--vantages 22"; do
  set +e
  # shellcheck disable=SC2086  # the flag and its value split on purpose
  ./build/tools/govdns_study --no-report ${ARGS} >/dev/null \
    2>"${SMOKE_DIR}/flag.err"
  STATUS=$?
  set -e
  if [ "${STATUS}" -ne 2 ] || ! grep -q "^usage:" "${SMOKE_DIR}/flag.err" ||
     grep -q "building world" "${SMOKE_DIR}/flag.err"; then
    echo "smoke: govdns_study ${ARGS} exited ${STATUS}:" >&2
    cat "${SMOKE_DIR}/flag.err" >&2
    exit 1
  fi
done
echo "smoke: bad flag values exit 2 with the usage line OK"

echo "==> smoke: benches and examples reject a bad argument before building a world"
# The benches read their scales from the environment (GOVDNS_SCALE, and
# bench_parallel_mine's GOVDNS_MINE_SCALE) and the examples from argv, all
# with the same strict parse and range as --scale, and country_audit checks
# its country code against the known codes; a bad value must exit 2 and
# never reach a "building world" progress line.
arg_rejected() {  # arg_rejected LABEL CMD...: CMD must exit 2, no world
  local label=$1
  shift
  set +e
  "$@" >"${SMOKE_DIR}/arg.err" 2>&1
  local status=$?
  set -e
  if [ "${status}" -ne 2 ] ||
     grep -Eq "building (extra )?world" "${SMOKE_DIR}/arg.err"; then
    echo "smoke: ${label} exited ${status}:" >&2
    cat "${SMOKE_DIR}/arg.err" >&2
    exit 1
  fi
}
for VALUE in nan abc -1 inf; do
  arg_rejected "GOVDNS_SCALE=${VALUE}" env GOVDNS_SCALE="${VALUE}" \
    ./build/bench/bench_ablation_nsdaily_stat --benchmark_filter='^$'
done
arg_rejected "quickstart abc" ./build/examples/quickstart abc
arg_rejected "full_report nan" ./build/examples/full_report nan
arg_rejected "country_audit zz 0.05" ./build/examples/country_audit zz 0.05
arg_rejected "GOVDNS_MINE_SCALE=abc" env GOVDNS_SCALE=0.01 \
  GOVDNS_MINE_SCALE=abc ./build/bench/bench_parallel_mine \
  --benchmark_filter='^$'
echo "smoke: bad GOVDNS_SCALE/GOVDNS_MINE_SCALE, example scales and a bad" \
  "country code exit 2 before any world OK"

echo "==> smoke: govdns_study --vantages refuses --trace before building a world"
# The merged cross-vantage report has no trace, CSV table or quarantine
# document, so --vantages with --trace (or --csv, or --quarantine-report) is
# a set-up error: exit 2 before the world is built, and no file written.
arg_rejected "--vantages 2 --trace" ./build/tools/govdns_study --no-report \
  --vantages 2 --checkpoint-dir "${SMOKE_DIR}/vant_refused" \
  --trace "${SMOKE_DIR}/vant_refused.json"
if [ -e "${SMOKE_DIR}/vant_refused.json" ]; then
  echo "smoke: --vantages 2 --trace wrote its trace file" >&2
  exit 1
fi
echo "smoke: --vantages 2 --trace exits 2 before any world, no trace file OK"

echo "==> smoke: bench_output.txt rebuilds byte for byte; report JSON pinned"
# The committed artifact is every paper table and figure from one
# govdns_study run at scale 1 (about 9 s and 0.7 GB on a 4-core host) plus
# the five ablations at scale 0.25 (about 14 s). All of it is deterministic,
# so a fresh rebuild must match the committed file exactly; any drift in a
# published number fails here. The same scale-1 run exports the report JSON,
# which must hash to REPORT_SHA256: a change that moves it on purpose edits
# that constant and says so, with the numbers that moved, in CHANGES.md.
REPORT_SHA256=9d1e7e6ed3e93165dff4cce6bcef704d406bece8e6a74864eb17857b8cb51efd
if ! ./assemble_outputs.sh "${SMOKE_DIR}/bench_output.txt" \
     "${SMOKE_DIR}/scale1.json" 2>"${SMOKE_DIR}/assemble.err"; then
  cat "${SMOKE_DIR}/assemble.err" >&2
  exit 1
fi
GOT_SHA256=$(sha256sum "${SMOKE_DIR}/scale1.json" | cut -d' ' -f1)
if [ "${GOT_SHA256}" != "${REPORT_SHA256}" ]; then
  echo "smoke: scale-1 report SHA-256 ${GOT_SHA256}, pinned ${REPORT_SHA256}" >&2
  exit 1
fi
echo "smoke: scale-1 report SHA-256 ${REPORT_SHA256} OK"
if ! cmp bench_output.txt "${SMOKE_DIR}/bench_output.txt"; then
  diff bench_output.txt "${SMOKE_DIR}/bench_output.txt" | head -40 >&2
  exit 1
fi
echo "smoke: bench_output.txt rebuilt byte-identical OK"

echo "==> smoke: bench_parallel_mine (identity at every worker count, both sweeps)"
# The mining pool is only allowed to change wall-clock time, never bytes —
# at every worker count, from the in-memory store and from the mapped file,
# at world scale and at the 10x GOVDNS_MINE_SCALE sweep. The measured and Amdahl-projected
# 4-worker speedups are printed as commentary only: a speedup floor fails on
# shared or small hosts without any code change, and perfbench/ (see
# BENCHMARK.json) is the performance gate (DESIGN.md §6j).
GOVDNS_SCALE=0.05 GOVDNS_MINE_SCALE=0.5 \
  GOVDNS_MINING_JSON="${SMOKE_DIR}/BENCH_mining.json" \
  ./build/bench/bench_parallel_mine --benchmark_filter='^$' >/dev/null 2>&1
python3 - "${SMOKE_DIR}/BENCH_mining.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())

def check(sweep, tag):
    points = {p["workers"]: p for p in sweep["sweep"]}
    assert {1, 2, 4, 8} <= set(points), (tag, sorted(points))
    assert all(p["identical_to_serial"] for p in sweep["sweep"]), (tag, sweep)
    subs = sweep["substrates"]
    assert {(s["substrate"], s["workers"]) for s in subs} == \
        {("mapped", 1), ("mapped", 4)}, (tag, subs)
    assert all(s["identical_to_serial"] for s in subs), (tag, subs)
    p4 = points[4]
    print(f"smoke: mining sweep {tag}: identity OK; 4-worker speedup "
          f"{p4['speedup_vs_serial']:.2f}x measured on {doc['cores']} cores, "
          f"{p4['projected_speedup']:.2f}x projected (commentary, not gated)")

check(doc, f"scale={doc['scale']}")
big = doc.get("mine_scale_sweep")
assert big is not None, sorted(doc)
check(big, f"scale={big['scale']}")
EOF

echo "==> smoke: checkpoint kill/resume (byte-identical report)"
# Kill the study at several journal write points via --ckpt-kill-after,
# resume, and require the exported report to match an uninterrupted
# checkpointed baseline byte for byte (DESIGN.md §6f). The kill run must
# exit with the dedicated kill-point code (42) so a crash-for-another-reason
# can never masquerade as a successful fault injection. Batches of 128 give
# scale 0.01 several batches and cut-cache deltas, and the midpoint resume
# must get its warm start from those deltas.
CKPT_DIR="${SMOKE_DIR}/ckpt"
CKPT_BATCH=128
ckpt_stat() {  # ckpt_stat FILE FIELD: a field of the run's [ckpt] stats line
  python3 -c '
import json, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"\[ckpt\] stats (\{.*\})", text)
assert m, text
print(json.loads(m.group(1))[sys.argv[2]])' "$1" "$2"
}
./build/tools/govdns_study --scale 0.01 --no-report \
  --checkpoint-dir "${CKPT_DIR}/base" --ckpt-batch "${CKPT_BATCH}" \
  --json "${SMOKE_DIR}/ckpt_base.json" 2>"${SMOKE_DIR}/ckpt_base.err"
WRITES=$(ckpt_stat "${SMOKE_DIR}/ckpt_base.err" commits)
echo "smoke: baseline checkpointed run journals ${WRITES} writes"
for K in 1 $((WRITES / 2)) "${WRITES}"; do
  DIR="${CKPT_DIR}/kill_${K}"
  set +e
  ./build/tools/govdns_study --scale 0.01 --no-report \
    --checkpoint-dir "${DIR}" --ckpt-batch "${CKPT_BATCH}" \
    --ckpt-kill-after "${K}" \
    --json "${SMOKE_DIR}/ckpt_killed.json" 2>/dev/null
  STATUS=$?
  set -e
  if [ "${STATUS}" -ne 42 ]; then
    echo "smoke: kill at write ${K} exited ${STATUS}, expected 42" >&2
    exit 1
  fi
  ./build/tools/govdns_study --scale 0.01 --no-report \
    --checkpoint-dir "${DIR}" --ckpt-batch "${CKPT_BATCH}" --resume \
    --json "${SMOKE_DIR}/ckpt_resumed.json" 2>"${SMOKE_DIR}/ckpt_resumed.err"
  cmp "${SMOKE_DIR}/ckpt_base.json" "${SMOKE_DIR}/ckpt_resumed.json"
  if [ "${K}" -eq $((WRITES / 2)) ]; then
    RESTORED=$(ckpt_stat "${SMOKE_DIR}/ckpt_resumed.err" \
      cache_entries_restored)
    if [ "${RESTORED}" -le 0 ]; then
      echo "smoke: midpoint resume restored no cut-cache entries" >&2
      exit 1
    fi
    echo "smoke: midpoint resume restored ${RESTORED} cut-cache entries"
  fi
  echo "smoke: kill at write ${K} -> resume -> report byte-identical OK"
done

echo "==> smoke: multi-vantage supervision (kill a vantage, identical merge)"
# Three supervised multi-vantage runs on the same seed: uninterrupted, one
# shard crashed at a journal write point (the supervisor restarts it from
# its own journal), and one shard SIGKILLed mid-run on the wall clock. All
# three merged cross-vantage disagreement reports must be byte-identical
# (DESIGN.md §6k) — fault recovery may cost time, never bytes.
VANT_DIR="${SMOKE_DIR}/vantage"
./build/tools/govdns_study --scale 0.01 --seed 7 --no-report \
  --vantages 2 --checkpoint-dir "${VANT_DIR}/base" \
  --json "${SMOKE_DIR}/vant_base.json" 2>/dev/null
./build/tools/govdns_study --scale 0.01 --seed 7 --no-report \
  --vantages 2 --checkpoint-dir "${VANT_DIR}/crash" \
  --vantage-kill-after v1-far:3 \
  --json "${SMOKE_DIR}/vant_crash.json" 2>/dev/null
cmp "${SMOKE_DIR}/vant_base.json" "${SMOKE_DIR}/vant_crash.json"
./build/tools/govdns_study --scale 0.01 --seed 7 --no-report \
  --vantages 2 --checkpoint-dir "${VANT_DIR}/sigkill" \
  --vantage-sigkill v0-base:150 \
  --json "${SMOKE_DIR}/vant_sigkill.json" 2>/dev/null
cmp "${SMOKE_DIR}/vant_base.json" "${SMOKE_DIR}/vant_sigkill.json"
python3 - "${SMOKE_DIR}/vant_base.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["vantages"], sorted(doc)
assert not doc["lost"], doc["lost"]
compared = doc["disagreement"]["countries_compared"]
assert compared > 0, doc["disagreement"]
print(f"smoke: vantage crash/SIGKILL -> restart -> merge byte-identical OK "
      f"({compared} countries compared)")
EOF

echo "==> smoke: snapshot file round-trip (mapped mining == in-memory mining)"
# Publish the world's in-memory PDNS image as a GVSN snapshot, then rerun
# the same study mining the mmapped file instead; the two exported reports
# must be byte-identical (DESIGN.md §6i).
SNAP="${SMOKE_DIR}/pdns.gvsn"
./build/tools/govdns_study --scale 0.01 --no-report \
  --snapshot-file "${SNAP}" \
  --json "${SMOKE_DIR}/snap_base.json" 2>/dev/null
./build/tools/govdns_study --scale 0.01 --no-report \
  --map-snapshot "${SNAP}" \
  --json "${SMOKE_DIR}/snap_mapped.json" 2>"${SMOKE_DIR}/snap_mapped.err"
cmp "${SMOKE_DIR}/snap_base.json" "${SMOKE_DIR}/snap_mapped.json"
grep -q "mapped ${SNAP}" "${SMOKE_DIR}/snap_mapped.err"
echo "smoke: mapped-snapshot report byte-identical OK"

echo "==> smoke: bench_snapshot_io (kFast open beats kFull open)"
# The O(1) open must actually be faster than the O(entries) fully
# validated one, and mining the in-memory or the mapped store at 1 or 4
# workers must reproduce the same dataset exactly.
GOVDNS_SCALE=0.05 GOVDNS_SNAPSHOT_JSON="${SMOKE_DIR}/BENCH_snapshot.json" \
  ./build/bench/bench_snapshot_io --benchmark_filter='^$' >/dev/null 2>&1
python3 - "${SMOKE_DIR}/BENCH_snapshot.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["fast_vs_full_speedup"] > 1.0, doc
assert all(doc["mining_identity"].values()), doc
print(f"smoke: bench_snapshot_io speedup "
      f"{doc['fast_vs_full_speedup']:.1f}x, mining identity OK")
EOF

echo "==> smoke: bench_query_engine (async engine >=10x sync loop)"
# The async engine exists to lift the real-socket path off the
# thread-per-query ceiling (DESIGN.md §6h). Run the bench artifact against
# the loopback echo server and assert the best window beats the 4-worker
# synchronous loop by at least 10x.
GOVDNS_NETIO_JSON="${SMOKE_DIR}/BENCH_netio.json" \
  ./build/bench/bench_query_engine --benchmark_filter='^$' >/dev/null 2>&1
python3 - "${SMOKE_DIR}/BENCH_netio.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["max_ratio"] >= 10.0, doc
windows = {p["window"] for p in doc["sweep"]}
assert {64, 256, 1024} <= windows, sorted(windows)
print(f"smoke: bench_query_engine max_ratio {doc['max_ratio']:.1f}x OK")
EOF

echo "==> smoke: perfbench_study builds from this tree and passes its self-test"
# The benchmark program (perfbench/study_main.cc) drives the library layer
# by layer, so a change to one of the calls it makes must fail here, not
# first inside a benchmark run. selftest.py builds perfbench_study into the
# git-ignored .bench_build/ (about 90 s from clean on a 4-core host, 2 s
# when built) and runs its tiny-world traced and resumed studies.
PYTHONDONTWRITEBYTECODE=1 python3 perfbench/selftest.py

echo "==> tier-1: asan/ubsan build + ctest"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"
timeout "${CTEST_TIMEOUT}" ctest --preset asan -j "${JOBS}"

echo "==> smoke: snapshot round-trip + mmap load under asan/ubsan"
# The mapped reader reinterprets file bytes in place; any bounds slip must
# trip the sanitizers here, not corrupt a real resume.
./build-asan/tools/govdns_study --scale 0.01 --no-report \
  --snapshot-file "${SMOKE_DIR}/asan.gvsn" \
  --json "${SMOKE_DIR}/asan_base.json" 2>/dev/null
./build-asan/tools/govdns_study --scale 0.01 --no-report \
  --map-snapshot "${SMOKE_DIR}/asan.gvsn" \
  --json "${SMOKE_DIR}/asan_mapped.json" 2>/dev/null
cmp "${SMOKE_DIR}/asan_base.json" "${SMOKE_DIR}/asan_mapped.json"
echo "smoke: asan snapshot round-trip OK"

echo "==> tier-1: ubsan-only build + ctest (hard-fail on UB)"
cmake --preset ubsan >/dev/null
cmake --build --preset ubsan -j "${JOBS}"
timeout "${CTEST_TIMEOUT}" ctest --preset ubsan -j "${JOBS}"

echo "==> smoke: snapshot round-trip + mmap load under ubsan"
./build-ubsan/tools/govdns_study --scale 0.01 --no-report \
  --snapshot-file "${SMOKE_DIR}/ubsan.gvsn" \
  --json "${SMOKE_DIR}/ubsan_base.json" 2>/dev/null
./build-ubsan/tools/govdns_study --scale 0.01 --no-report \
  --map-snapshot "${SMOKE_DIR}/ubsan.gvsn" \
  --json "${SMOKE_DIR}/ubsan_mapped.json" 2>/dev/null
cmp "${SMOKE_DIR}/ubsan_base.json" "${SMOKE_DIR}/ubsan_mapped.json"
echo "smoke: ubsan snapshot round-trip OK"

echo "==> tier-1: tsan build + concurrency suites"
# The sharded measurement and mining pools (shared cut cache, SimNetwork
# striping, immutable PDNS snapshot, per-worker merges) must be race-free, not
# just correct-when-lucky. Run the suites that exercise the parallel paths
# under ThreadSanitizer; the binaries are invoked directly so gtest filters
# stay simple and reliable.
cmake --preset tsan >/dev/null
# worldgen_test builds worlds with passive DNS on a second thread, the
# measurement pool reads the sealed zones (zone_test) from every worker, and
# BuildReport runs its analyzers on the pool (report_test, analysis_test).
cmake --build --preset tsan -j "${JOBS}" --target \
  simnet_test resolver_test measure_test parallel_measure_test \
  chaos_resilience_test pdns_test mining_test parallel_mine_test \
  mining_fold_test ckpt_test ckpt_resume_test degradation_test \
  quarantine_test netio_test snapshot_file_test worldgen_test zone_test \
  report_test analysis_test
for t in simnet_test resolver_test measure_test parallel_measure_test \
         chaos_resilience_test pdns_test mining_test parallel_mine_test \
         mining_fold_test ckpt_test ckpt_resume_test degradation_test \
         quarantine_test netio_test snapshot_file_test worldgen_test \
         zone_test report_test analysis_test; do
  echo "==> tsan: ${t}"
  timeout "${CTEST_TIMEOUT}" "./build-tsan/tests/${t}"
done

echo "==> verify OK (release + smoke + asan + ubsan + tsan)"
