#include "core/vantage.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "ckpt/journal.h"
#include "ckpt/serial.h"
#include "util/json.h"
#include "util/rng.h"

namespace govdns::core {

namespace {

// Namespace tag for VantageBaseFingerprint: keeps a vantage journal's
// identity disjoint from the single-vantage journal of the same world even
// for an empty vantage name.
constexpr uint64_t kVantageFpTag = 0x6776766eULL;  // "gvvn"

// A country row's wire floor: a 1-octet string length plus six 8-octet
// I64s. A row is bigger in memory, so the count is checked against it.
constexpr size_t kCountryRowMinOctets = 1 + 6 * 8;

// Authoritative-share verdict thresholds (see DisagreementRow).
const char* VerdictFor(int64_t domains, int64_t authoritative) {
  if (domains == 0) return "none";
  const double share = double(authoritative) / double(domains);
  if (share >= 0.9) return "healthy";
  if (share >= 0.5) return "degraded";
  if (share > 0.0) return "lame";
  return "dark";
}

}  // namespace

VantageSummary BuildVantageSummary(const std::string& name,
                                   uint64_t fingerprint,
                                   const ActiveDataset& dataset,
                                   const std::string& report_json) {
  VantageSummary s;
  s.name = name;
  s.fingerprint = fingerprint;
  s.report_crc = ckpt::Crc32(report_json);
  std::vector<VantageCountryHealth> rows(dataset.metas.size());
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    ++s.domains;
    if (r.parent_responded) ++s.responsive;
    if (r.child_any_authoritative) ++s.authoritative;
    if (r.quarantine_reason != QuarantineReason::kNone) ++s.quarantined;
    const int c = i < dataset.country.size() ? dataset.country[i] : -1;
    if (c < 0 || c >= static_cast<int>(rows.size())) continue;
    VantageCountryHealth& row = rows[c];
    ++row.domains;
    if (r.parent_responded) {
      ++row.responsive;
      if (r.child_any_authoritative) {
        ++row.authoritative;
      } else if (r.parent_has_records) {
        ++row.lame;
      }
    } else {
      ++row.unreachable;
    }
    if (r.quarantine_reason != QuarantineReason::kNone) ++row.quarantined;
  }
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    if (rows[slot].domains == 0) continue;
    rows[slot].code = dataset.metas[slot].code;
    s.countries.push_back(std::move(rows[slot]));
  }
  return s;
}

void EncodeVantageSummary(ckpt::Writer& w, const VantageSummary& summary) {
  w.U8(kVantageFrameKind);
  w.Str(summary.name);
  w.U64(summary.fingerprint);
  w.I64(summary.domains);
  w.I64(summary.responsive);
  w.I64(summary.authoritative);
  w.I64(summary.quarantined);
  w.U32(summary.report_crc);
  w.Size(summary.countries.size());
  for (const VantageCountryHealth& row : summary.countries) {
    w.Str(row.code);
    w.I64(row.domains);
    w.I64(row.responsive);
    w.I64(row.authoritative);
    w.I64(row.lame);
    w.I64(row.unreachable);
    w.I64(row.quarantined);
  }
}

bool DecodeVantageSummary(ckpt::Reader& r, VantageSummary* out) {
  uint8_t kind = 0;
  size_t count = 0;
  if (!r.U8(&kind) || kind != kVantageFrameKind || !r.Str(&out->name) ||
      !r.U64(&out->fingerprint) || !r.I64(&out->domains) ||
      !r.I64(&out->responsive) || !r.I64(&out->authoritative) ||
      !r.I64(&out->quarantined) || !r.U32(&out->report_crc) ||
      !r.Count(&count, kCountryRowMinOctets)) {
    return false;
  }
  out->countries.resize(count);
  for (size_t i = 0; i < count; ++i) {
    VantageCountryHealth& row = out->countries[i];
    if (!r.Str(&row.code) || !r.I64(&row.domains) || !r.I64(&row.responsive) ||
        !r.I64(&row.authoritative) || !r.I64(&row.lame) ||
        !r.I64(&row.unreachable) || !r.I64(&row.quarantined)) {
      return false;
    }
  }
  return r.AtEnd();
}

std::optional<VantageSummary> LoadVantageSummary(const std::string& dir,
                                                 uint64_t fingerprint) {
  ckpt::Journal journal(dir, fingerprint);
  auto frame = journal.Load(kVantageFrameName, /*parent_crc=*/0);
  if (!frame.ok()) return std::nullopt;
  ckpt::Reader r(frame->payload);
  VantageSummary summary;
  if (!DecodeVantageSummary(r, &summary)) return std::nullopt;
  // Frame-level fingerprint validation already ran; the embedded copy must
  // agree, or the payload summarizes some other vantage's run.
  if (summary.fingerprint != fingerprint) return std::nullopt;
  return summary;
}

std::string VantageJournalDir(const std::string& ckpt_root,
                              const std::string& name) {
  return ckpt_root + "/vantage_" + name;
}

uint64_t VantageBaseFingerprint(uint64_t world_fingerprint,
                                const std::string& name) {
  return ckpt::MixFingerprint(world_fingerprint,
                              util::HashString(name, kVantageFpTag));
}

// --- Supervision -----------------------------------------------------------

VantageSupervisor::VantageSupervisor(std::vector<std::string> names,
                                     VantageSupervisorOptions options)
    : names_(std::move(names)), options_(options) {
  if (options_.max_restarts < 0) options_.max_restarts = 0;
  if (options_.poll_ms == 0) options_.poll_ms = 1;
}

std::vector<VantageOutcome> VantageSupervisor::Run(const ChildFn& fn) {
  using Clock = std::chrono::steady_clock;

  struct Child {
    std::string name;
    pid_t pid = -1;
    int attempt = 0;
    Clock::time_point first_start;
    Clock::time_point attempt_start;
    bool running = false;
    bool kill_once_pending = false;
    bool deadline_kill_inflight = false;
    VantageOutcome out;
  };

  auto spawn = [&fn](Child& c) {
    c.attempt_start = Clock::now();
    c.running = true;
    c.deadline_kill_inflight = false;
    pid_t pid = fork();
    GOVDNS_CHECK(pid >= 0);
    if (pid == 0) {
      // Shard process: run the vantage and die without touching the
      // parent's atexit machinery (stdio is shared with the parent).
      _exit(fn(c.name, c.attempt));
    }
    c.pid = pid;
  };

  std::vector<Child> children(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    Child& c = children[i];
    c.name = names_[i];
    c.out.name = names_[i];
    c.first_start = Clock::now();
    c.kill_once_pending = options_.kill_once.has_value() &&
                          options_.kill_once->name == c.name;
    spawn(c);
  }

  auto elapsed_ms = [](Clock::time_point since) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              since)
            .count());
  };

  size_t running = children.size();
  while (running > 0) {
    for (Child& c : children) {
      if (!c.running) continue;
      int status = 0;
      const pid_t r = waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        c.running = false;
        --running;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        c.out.attempts = c.attempt + 1;
        c.out.last_exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
        c.out.last_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        if (c.deadline_kill_inflight) ++c.out.deadline_kills;
        if (clean) continue;
        if (c.attempt >= options_.max_restarts) {
          // Restart budget spent: the vantage is lost. Its partial journal
          // stays on disk (an operator can still resume it by hand); the
          // merge proceeds without it.
          c.out.lost = true;
          continue;
        }
        ++c.attempt;
        spawn(c);
        ++running;
        continue;
      }
      // Still running: fault injection first (a real mid-phase SIGKILL),
      // then the straggler deadline.
      if (c.kill_once_pending &&
          elapsed_ms(c.first_start) >= options_.kill_once->after_ms) {
        c.kill_once_pending = false;
        kill(c.pid, SIGKILL);
        continue;
      }
      if (options_.deadline_ms > 0 && !c.deadline_kill_inflight &&
          elapsed_ms(c.attempt_start) >= options_.deadline_ms) {
        c.deadline_kill_inflight = true;
        kill(c.pid, SIGKILL);
      }
    }
    if (running > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
  }

  std::vector<VantageOutcome> out;
  out.reserve(children.size());
  for (Child& c : children) out.push_back(std::move(c.out));
  return out;
}

// --- Deterministic merge ---------------------------------------------------

MultiVantageReport MergeVantageSummaries(std::vector<VantageSummary> summaries,
                                         std::vector<std::string> lost) {
  MultiVantageReport report;
  // Name order, not completion order: the single sort that makes the whole
  // merged document independent of scheduling and restart history.
  std::sort(summaries.begin(), summaries.end(),
            [](const VantageSummary& a, const VantageSummary& b) {
              return a.name < b.name;
            });
  std::sort(lost.begin(), lost.end());
  report.lost = std::move(lost);
  for (const VantageSummary& s : summaries) report.order.push_back(s.name);

  const size_t n = summaries.size();
  std::map<std::string, std::vector<const VantageCountryHealth*>> by_code;
  for (size_t v = 0; v < n; ++v) {
    for (const VantageCountryHealth& row : summaries[v].countries) {
      auto& slots = by_code[row.code];
      slots.resize(n, nullptr);
      slots[v] = &row;
    }
  }
  for (const auto& [code, slots] : by_code) {
    int present = 0;
    for (const VantageCountryHealth* row : slots) {
      if (row != nullptr && row->domains > 0) ++present;
    }
    if (present < 2) continue;  // nothing to disagree about
    DisagreementRow out;
    out.code = code;
    double min_share = 1.0, max_share = 0.0;
    std::string first_verdict;
    for (size_t v = 0; v < n; ++v) {
      const VantageCountryHealth* row = slots.size() > v ? slots[v] : nullptr;
      const int64_t domains = row != nullptr ? row->domains : 0;
      const int64_t authoritative = row != nullptr ? row->authoritative : 0;
      out.domains.push_back(domains);
      out.authoritative.push_back(authoritative);
      out.verdicts.push_back(VerdictFor(domains, authoritative));
      if (domains == 0) continue;
      const double share = double(authoritative) / double(domains);
      min_share = std::min(min_share, share);
      max_share = std::max(max_share, share);
      if (first_verdict.empty()) {
        first_verdict = out.verdicts.back();
      } else if (out.verdicts.back() != first_verdict) {
        out.disagrees = true;
      }
    }
    out.spread = max_share - min_share;
    ++report.countries_compared;
    if (out.disagrees) ++report.countries_disagreeing;
    report.rows.push_back(std::move(out));
  }
  report.vantages = std::move(summaries);
  return report;
}

std::string ExportMultiVantageJson(const MultiVantageReport& report) {
  util::JsonWriter w;
  w.BeginObject();
  w.Key("vantages").BeginArray();
  for (const VantageSummary& s : report.vantages) {
    w.BeginObject();
    w.Kv("name", s.name);
    w.Key("fingerprint").Uint(s.fingerprint);
    w.Kv("domains", s.domains);
    w.Kv("responsive", s.responsive);
    w.Kv("authoritative", s.authoritative);
    w.Kv("quarantined", s.quarantined);
    w.Key("report_crc").Uint(s.report_crc);
    w.Key("countries").BeginArray();
    for (const VantageCountryHealth& row : s.countries) {
      w.BeginObject();
      w.Kv("code", row.code);
      w.Kv("domains", row.domains);
      w.Kv("responsive", row.responsive);
      w.Kv("authoritative", row.authoritative);
      w.Kv("lame", row.lame);
      w.Kv("unreachable", row.unreachable);
      w.Kv("quarantined", row.quarantined);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("lost").BeginArray();
  for (const std::string& name : report.lost) w.String(name);
  w.EndArray();
  // Lost vantages are quarantine, not silence: name the taxonomy entry so
  // downstream coverage tooling treats them like any other degraded scope.
  w.Kv("lost_reason", QuarantineReasonName(QuarantineReason::kVantageLost));
  w.Key("disagreement").BeginObject();
  w.Kv("countries_compared", report.countries_compared);
  w.Kv("countries_disagreeing", report.countries_disagreeing);
  w.Key("rows").BeginArray();
  for (const DisagreementRow& row : report.rows) {
    w.BeginObject();
    w.Kv("code", row.code);
    w.Kv("spread", row.spread);
    w.Kv("disagrees", row.disagrees);
    w.Key("domains").BeginArray();
    for (int64_t v : row.domains) w.Int(v);
    w.EndArray();
    w.Key("authoritative").BeginArray();
    for (int64_t v : row.authoritative) w.Int(v);
    w.EndArray();
    w.Key("verdicts").BeginArray();
    for (const std::string& v : row.verdicts) w.String(v);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

void PrintMultiVantageReport(const MultiVantageReport& report,
                             std::ostream& os) {
  os << "\n-- cross-vantage disagreement --\n";
  os << "vantages:";
  for (const std::string& name : report.order) os << " " << name;
  if (!report.lost.empty()) {
    os << "  (lost:";
    for (const std::string& name : report.lost) os << " " << name;
    os << ")";
  }
  os << "\n";
  for (const VantageSummary& s : report.vantages) {
    os << "  " << s.name << ": " << s.domains << " domains, " << s.responsive
       << " responsive, " << s.authoritative << " authoritative, "
       << s.quarantined << " quarantined\n";
  }
  os << "countries compared: " << report.countries_compared << ", disagreeing: "
     << report.countries_disagreeing << "\n";
  for (const DisagreementRow& row : report.rows) {
    if (!row.disagrees) continue;
    os << "  " << row.code << ":";
    for (size_t v = 0; v < row.verdicts.size(); ++v) {
      os << " " << report.order[v] << "=" << row.verdicts[v] << "("
         << row.authoritative[v] << "/" << row.domains[v] << ")";
    }
    os << "\n";
  }
}

}  // namespace govdns::core
