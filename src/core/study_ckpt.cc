#include "core/study_ckpt.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string_view>
#include <utility>

#include "ckpt/serial.h"
#include "core/study.h"
#include "core/vantage.h"
#include "util/json.h"

namespace govdns::core {

namespace {

// Payload kind tags: a frame renamed on disk (or a name collision) must
// decode as a clean reject, not as a different phase's data. Tags are never
// reused, so a frame of an older layout is rejected too: 4 belonged to the
// whole-cache cut-cache snapshot, and 7 is the vantage frame (core/vantage.h).
constexpr uint8_t kKindSelection = 1;
constexpr uint8_t kKindMining = 2;
constexpr uint8_t kKindBatch = 3;
constexpr uint8_t kKindReport = 5;
constexpr uint8_t kKindQuarantine = 6;
constexpr uint8_t kKindCutCacheDelta = 8;

constexpr char kSelectionFrame[] = "selection";
constexpr char kMiningFrame[] = "mining";
constexpr char kReportFrame[] = "report";
constexpr char kQuarantineFrame[] = "quarantine";

std::string SeqFrameName(const char* prefix, size_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s_%06zu", prefix, seq);
  return buf;
}

std::string BatchFrameName(size_t seq) { return SeqFrameName("active", seq); }

std::string DeltaFrameName(size_t seq) {
  return SeqFrameName("cutcache", seq);
}

// --- field codecs ----------------------------------------------------------

// The fewest frame octets one element of each decoded sequence takes (a
// string or list counts its empty form): a name is U8(0), the root; a
// profile record Str, I64, U64 and F64; a measured host a name, an empty
// address list, U8 and two Bools; a seed I32, a name, U8 and Bool; a cut
// cache change a name and Bool(false). A mined domain's floor depends on
// the year count (DecodeMiningPayload).
constexpr size_t kMinNameOctets = 1;
constexpr size_t kMinStrOctets = 1;
constexpr size_t kMinAddrOctets = 4;
constexpr size_t kMinProfileOctets = 1 + 8 + 8 + 8;
constexpr size_t kMinHostOctets = kMinNameOctets + 1 + 1 + 1 + 1;
constexpr size_t kMinSeedOctets = 4 + kMinNameOctets + 1 + 1;
constexpr size_t kMinCutChangeOctets = kMinNameOctets + 1;

// Reads the element count of a sequence whose elements each take at least
// `min_octets` of the frame, and empties `out` with room for them. A count
// the bytes left cannot hold is refused before anything is reserved, and
// the reservation never asks for more bytes than are left, so a crafted
// count cannot drive a request larger than the frame; elements past the
// reservation grow the vector as they decode.
template <typename T>
bool GetCount(ckpt::Reader& r, size_t min_octets, std::vector<T>* out,
              size_t* count) {
  if (!r.Count(count, min_octets)) return false;
  out->clear();
  out->reserve(std::min(*count, r.remaining() / sizeof(T)));
  return true;
}

void PutName(ckpt::Writer& w, const dns::Name& name) {
  w.U8(static_cast<uint8_t>(name.LabelCount()));
  for (const std::string_view label : name.labels()) w.Str(label);
}

// Decodes in place: the labels are views into the frame, validated and
// copied once, straight into the name's key. The union leaves the view
// slots uninitialized, as the wire codec's ReadName does: zero-filling all
// 127 on every call cost more than decoding a typical name.
bool GetName(ckpt::Reader& r, dns::Name* out) {
  uint8_t count = 0;
  if (!r.U8(&count) || count > dns::Name::kMaxLabels) return false;
  union LabelSlots {
    LabelSlots() {}
    std::string_view views[dns::Name::kMaxLabels];
  } labels;
  for (uint8_t i = 0; i < count; ++i) {
    if (!r.View(&labels.views[i])) return false;
  }
  auto name = dns::Name::FromLabels(std::span(labels.views, count));
  if (!name.ok()) return false;
  *out = *std::move(name);
  return true;
}

void PutNameList(ckpt::Writer& w, const std::vector<dns::Name>& names) {
  w.Size(names.size());
  for (const dns::Name& n : names) PutName(w, n);
}

bool GetNameList(ckpt::Reader& r, std::vector<dns::Name>* out) {
  size_t count = 0;
  if (!GetCount(r, kMinNameOctets, out, &count)) return false;
  for (size_t i = 0; i < count; ++i) {
    if (!GetName(r, &out->emplace_back())) return false;
  }
  return true;
}

void PutAddrList(ckpt::Writer& w, const std::vector<geo::IPv4>& addrs) {
  w.Size(addrs.size());
  for (const geo::IPv4 a : addrs) w.U32(a.bits());
}

bool GetAddrList(ckpt::Reader& r, std::vector<geo::IPv4>* out) {
  size_t count = 0;
  if (!GetCount(r, kMinAddrOctets, out, &count)) return false;
  for (size_t i = 0; i < count; ++i) {
    uint32_t bits = 0;
    if (!r.U32(&bits)) return false;
    out->push_back(geo::IPv4(bits));
  }
  return true;
}

void PutCounters(ckpt::Writer& w, const ResolverCounters& c) {
  w.U64(c.queries);
  w.U64(c.retries);
  w.U64(c.timeouts);
  w.U64(c.unreachable);
  w.U64(c.refused);
  w.U64(c.malformed);
  w.U64(c.wrong_id);
  w.U64(c.truncated);
  w.U64(c.backoff_ms);
  w.U64(c.breaker_skips);
  w.U64(c.negative_cache_hits);
  w.U64(c.budget_denied);
  w.U64(c.deadline_denied);
}

bool GetCounters(ckpt::Reader& r, ResolverCounters* c) {
  return r.U64(&c->queries) && r.U64(&c->retries) && r.U64(&c->timeouts) &&
         r.U64(&c->unreachable) && r.U64(&c->refused) && r.U64(&c->malformed) &&
         r.U64(&c->wrong_id) && r.U64(&c->truncated) && r.U64(&c->backoff_ms) &&
         r.U64(&c->breaker_skips) && r.U64(&c->negative_cache_hits) &&
         r.U64(&c->budget_denied) && r.U64(&c->deadline_denied);
}

void PutProfile(ckpt::Writer& w, const std::vector<obs::PhaseRecord>& records) {
  w.Size(records.size());
  for (const obs::PhaseRecord& rec : records) {
    w.Str(rec.name);
    w.I64(rec.items);
    w.U64(rec.logical_ms);
    w.F64(rec.wall_ms);
  }
}

bool GetProfile(ckpt::Reader& r, std::vector<obs::PhaseRecord>* out) {
  size_t count = 0;
  if (!GetCount(r, kMinProfileOctets, out, &count)) return false;
  for (size_t i = 0; i < count; ++i) {
    obs::PhaseRecord& rec = out->emplace_back();
    if (!r.Str(&rec.name) || !r.I64(&rec.items) || !r.U64(&rec.logical_ms) ||
        !r.F64(&rec.wall_ms)) {
      return false;
    }
  }
  return true;
}

void PutMiningConfig(ckpt::Writer& w, const MiningConfig& c) {
  w.I32(c.first_year);
  w.I32(c.last_year);
  w.I32(c.stability_days);
  w.U8(static_cast<uint8_t>(c.statistic));
  w.I32(c.active_window.first);
  w.I32(c.active_window.last);
  w.Bool(c.filter_disposable);
  w.Bool(c.require_stable_for_active);
}

bool GetMiningConfig(ckpt::Reader& r, MiningConfig* c) {
  uint8_t statistic = 0;
  if (!r.I32(&c->first_year) || !r.I32(&c->last_year) ||
      !r.I32(&c->stability_days) || !r.U8(&statistic) ||
      !r.I32(&c->active_window.first) || !r.I32(&c->active_window.last) ||
      !r.Bool(&c->filter_disposable) ||
      !r.Bool(&c->require_stable_for_active)) {
    return false;
  }
  if (statistic > static_cast<uint8_t>(YearlyStatistic::kMean)) return false;
  c->statistic = static_cast<YearlyStatistic>(statistic);
  return true;
}

void PutResult(ckpt::Writer& w, const MeasurementResult& res) {
  PutName(w, res.domain);
  w.Bool(res.parent_located);
  PutName(w, res.parent_zone);
  w.Bool(res.parent_responded);
  w.Bool(res.parent_has_records);
  w.Bool(res.parent_answered_authoritatively);
  PutNameList(w, res.parent_ns);
  PutNameList(w, res.child_ns);
  w.Bool(res.child_any_authoritative);
  w.Size(res.hosts.size());
  for (const NsHostResult& host : res.hosts) {
    PutName(w, host.host);
    PutAddrList(w, host.addresses);
    w.U8(static_cast<uint8_t>(host.status));
    w.Bool(host.in_parent_set);
    w.Bool(host.in_child_set);
  }
  w.Bool(res.soa.has_value());
  if (res.soa.has_value()) {
    PutName(w, res.soa->mname);
    PutName(w, res.soa->rname);
    w.U32(res.soa->serial);
    w.U32(res.soa->refresh);
    w.U32(res.soa->retry);
    w.U32(res.soa->expire);
    w.U32(res.soa->minimum);
  }
  w.I32(res.rounds);
  PutCounters(w, res.query_stats);
  w.Bool(res.degraded);
  w.U64(res.logical_ms);
  w.U8(static_cast<uint8_t>(res.quarantine_reason));
}

bool GetResult(ckpt::Reader& r, MeasurementResult* res) {
  if (!GetName(r, &res->domain) || !r.Bool(&res->parent_located) ||
      !GetName(r, &res->parent_zone) || !r.Bool(&res->parent_responded) ||
      !r.Bool(&res->parent_has_records) ||
      !r.Bool(&res->parent_answered_authoritatively) ||
      !GetNameList(r, &res->parent_ns) || !GetNameList(r, &res->child_ns) ||
      !r.Bool(&res->child_any_authoritative)) {
    return false;
  }
  size_t host_count = 0;
  if (!GetCount(r, kMinHostOctets, &res->hosts, &host_count)) return false;
  for (size_t i = 0; i < host_count; ++i) {
    NsHostResult& host = res->hosts.emplace_back();
    uint8_t status = 0;
    if (!GetName(r, &host.host) || !GetAddrList(r, &host.addresses) ||
        !r.U8(&status) || !r.Bool(&host.in_parent_set) ||
        !r.Bool(&host.in_child_set)) {
      return false;
    }
    if (status > static_cast<uint8_t>(NsHostStatus::kUnresolvable)) {
      return false;
    }
    host.status = static_cast<NsHostStatus>(status);
  }
  bool has_soa = false;
  if (!r.Bool(&has_soa)) return false;
  if (has_soa) {
    dns::SoaRdata soa;
    if (!GetName(r, &soa.mname) || !GetName(r, &soa.rname) ||
        !r.U32(&soa.serial) || !r.U32(&soa.refresh) || !r.U32(&soa.retry) ||
        !r.U32(&soa.expire) || !r.U32(&soa.minimum)) {
      return false;
    }
    res->soa = std::move(soa);
  } else {
    res->soa.reset();
  }
  uint8_t reason = 0;
  if (!r.I32(&res->rounds) || !GetCounters(r, &res->query_stats) ||
      !r.Bool(&res->degraded) || !r.U64(&res->logical_ms) || !r.U8(&reason) ||
      reason > kMaxQuarantineReason) {
    return false;
  }
  res->quarantine_reason = static_cast<QuarantineReason>(reason);
  return true;
}

}  // namespace

std::string EncodeMiningPayload(const MinedDataset& dataset,
                                const std::vector<obs::PhaseRecord>& profile) {
  ckpt::Writer w;
  w.U8(kKindMining);
  PutMiningConfig(w, dataset.config);
  w.Size(dataset.ns_count());
  for (size_t i = 0; i < dataset.ns_count(); ++i) {
    w.Str(dataset.NsName(static_cast<int32_t>(i)));
  }
  w.Size(dataset.domains.size());
  const size_t years = static_cast<size_t>(dataset.config.year_count());
  size_t row = 0;
  for (const MinedDomain& dom : dataset.domains) {
    PutName(w, dom.name);
    w.I32(dom.country);
    w.I32(dom.seed_index);
    w.Size(years);
    for (size_t y = 0; y < years; ++y, ++row) {
      w.I32(dataset.modes[row]);
      const uint32_t begin = dataset.ids_begin[row];
      const uint32_t end = dataset.ids_begin[row + 1];
      w.Size(end - begin);
      for (uint32_t i = begin; i < end; ++i) w.I32(dataset.ns_ids[i]);
    }
    w.Bool(dom.disposable);
    w.Bool(dom.in_active_window);
  }
  const MiningStats& s = dataset.stats;
  w.I64(s.seeds);
  w.I64(s.entries_scanned);
  w.I64(s.entries_unstable);
  w.I64(s.domains);
  w.I64(s.domains_disposable);
  w.I64(s.domains_in_active_window);
  PutProfile(w, profile);
  return w.Take();
}

bool DecodeMiningPayload(std::string_view payload,
                         StudyCheckpoint::MiningSnapshot* snap) {
  ckpt::Reader r(payload);
  MinedDataset& data = snap->dataset;
  uint8_t kind = 0;
  if (!r.U8(&kind) || kind != kKindMining ||
      !GetMiningConfig(r, &data.config)) {
    return false;
  }
  size_t ns_count = 0;
  if (!GetCount(r, kMinStrOctets, &data.ns_ends, &ns_count)) return false;
  data.ns_bytes.clear();
  for (size_t i = 0; i < ns_count; ++i) {
    std::string_view name;
    if (!r.View(&name) || data.ns_bytes.size() + name.size() >
                              std::numeric_limits<uint32_t>::max()) {
      return false;
    }
    data.AppendNsName(name);
  }

  // Every domain carries one row per configured year (computed wide: the
  // years are untrusted until TryLoadMining compares the config), so it
  // takes at least its name, country, seed index, year count and two flags
  // plus an I32 mode and an empty id list per year.
  const int64_t years =
      int64_t{data.config.last_year} - int64_t{data.config.first_year} + 1;
  const size_t min_domain_octets =
      kMinNameOctets + 4 + 4 + 1 + 2 +
      5 * static_cast<size_t>(std::max<int64_t>(years, 0));
  size_t domain_count = 0;
  if (!GetCount(r, min_domain_octets, &data.domains, &domain_count)) {
    return false;
  }
  const size_t rows =
      years > 0 ? domain_count * static_cast<size_t>(years) : 0;
  data.modes.clear();
  data.modes.reserve(rows);
  data.ids_begin.assign(1, 0);
  data.ids_begin.reserve(rows + 1);
  data.ns_ids.clear();
  for (size_t i = 0; i < domain_count; ++i) {
    MinedDomain& dom = data.domains.emplace_back();
    size_t year_count = 0;
    // The longitudinal analyzers walk every configured year and index
    // dense marks by country (from the -1 default up) and by NS id.
    if (!GetName(r, &dom.name) || !r.I32(&dom.country) || dom.country < -1 ||
        !r.I32(&dom.seed_index) || !r.Count(&year_count) ||
        static_cast<int64_t>(year_count) != years) {
      return false;
    }
    for (size_t y = 0; y < year_count; ++y) {
      int32_t mode = 0;
      size_t id_count = 0;
      if (!r.I32(&mode) || !r.Count(&id_count, 4)) return false;
      // Offsets are 32-bit: a frame past 4Gi ids (16 GiB of them) is one
      // the miner refuses to build.
      const size_t at = data.ns_ids.size();
      if (at + id_count > std::numeric_limits<uint32_t>::max()) return false;
      data.ns_ids.resize(at + id_count);
      for (size_t k = 0; k < id_count; ++k) {
        int32_t& id = data.ns_ids[at + k];
        if (!r.I32(&id) || id < 0 || static_cast<size_t>(id) >= ns_count) {
          return false;
        }
      }
      data.modes.push_back(mode);
      data.ids_begin.push_back(static_cast<uint32_t>(at + id_count));
    }
    if (!r.Bool(&dom.disposable) || !r.Bool(&dom.in_active_window)) {
      return false;
    }
  }
  MiningStats& s = data.stats;
  return r.I64(&s.seeds) && r.I64(&s.entries_scanned) &&
         r.I64(&s.entries_unstable) && r.I64(&s.domains) &&
         r.I64(&s.domains_disposable) && r.I64(&s.domains_in_active_window) &&
         GetProfile(r, &snap->profile) && r.AtEnd();
}

StudyCheckpoint::StudyCheckpoint(std::string dir, uint64_t config_fingerprint,
                                 StudyCheckpointOptions options)
    : journal_(std::move(dir), config_fingerprint),
      options_(options),
      base_fingerprint_(config_fingerprint) {
  if (options_.batch_size == 0) options_.batch_size = 1;
}

void StudyCheckpoint::Bind(uint64_t study_fingerprint) {
  GOVDNS_CHECK(!bound_);
  bound_ = true;
  journal_.set_fingerprint(
      ckpt::MixFingerprint(base_fingerprint_, study_fingerprint));
  if (!options_.resume) journal_.WipeAll();
}

void StudyCheckpoint::set_fault_plan(const ckpt::CkptFaultPlan& plan) {
  journal_.set_fault_plan(plan);
}

std::optional<StudyCheckpoint::SelectionSnapshot>
StudyCheckpoint::TryLoadSelection() {
  GOVDNS_CHECK(bound_);
  if (!options_.resume) return std::nullopt;
  auto frame = journal_.Load(kSelectionFrame, /*parent_crc=*/0);
  if (!frame.ok()) return std::nullopt;
  ckpt::Reader r(frame->payload);
  uint8_t kind = 0;
  SelectionSnapshot snap;
  size_t seed_count = 0;
  bool ok = r.U8(&kind) && kind == kKindSelection &&
            GetCount(r, kMinSeedOctets, &snap.seeds, &seed_count);
  if (ok) {
    for (size_t i = 0; ok && i < seed_count; ++i) {
      SeedDomain& seed = snap.seeds.emplace_back();
      uint8_t verification = 0;
      ok = r.I32(&seed.country) && GetName(r, &seed.d_gov) &&
           r.U8(&verification) && r.Bool(&seed.used_msq_fallback) &&
           verification <= static_cast<uint8_t>(SeedVerification::kMsqCrossCheck);
      if (ok) seed.verification = static_cast<SeedVerification>(verification);
    }
  }
  ok = ok && r.I32(&snap.stats.total) && r.I32(&snap.stats.broken_links) &&
       r.I32(&snap.stats.squatted_links) && r.I32(&snap.stats.msq_fallbacks) &&
       r.I32(&snap.stats.registered_domain_fallbacks) &&
       GetProfile(r, &snap.profile) && r.AtEnd();
  if (!ok) {
    ++stats_.decode_rejects;
    return std::nullopt;
  }
  have_selection_ = true;
  selection_crc_ = frame->crc;
  ++stats_.phases_loaded;
  return snap;
}

void StudyCheckpoint::SaveSelection(const SelectionSnapshot& snap) {
  GOVDNS_CHECK(bound_);
  ckpt::Writer w;
  w.U8(kKindSelection);
  w.Size(snap.seeds.size());
  for (const SeedDomain& seed : snap.seeds) {
    w.I32(seed.country);
    PutName(w, seed.d_gov);
    w.U8(static_cast<uint8_t>(seed.verification));
    w.Bool(seed.used_msq_fallback);
  }
  w.I32(snap.stats.total);
  w.I32(snap.stats.broken_links);
  w.I32(snap.stats.squatted_links);
  w.I32(snap.stats.msq_fallbacks);
  w.I32(snap.stats.registered_domain_fallbacks);
  PutProfile(w, snap.profile);
  auto crc = journal_.Commit(kSelectionFrame, w.Take(), /*parent_crc=*/0);
  if (!crc.ok()) {
    throw PipelineError("checkpoint", "selection: " + crc.status().ToString());
  }
  have_selection_ = true;
  selection_crc_ = *crc;
  ++stats_.phases_saved;
}

std::optional<StudyCheckpoint::MiningSnapshot> StudyCheckpoint::TryLoadMining(
    const MiningConfig& expected_config) {
  GOVDNS_CHECK(bound_);
  if (!options_.resume || !have_selection_) return std::nullopt;
  auto frame = journal_.Load(kMiningFrame, selection_crc_);
  if (!frame.ok()) return std::nullopt;
  MiningSnapshot snap;
  // A decoded dataset mined under a different MiningConfig is stale data,
  // even though the frame itself validated.
  if (!DecodeMiningPayload(frame->payload, &snap) ||
      !(snap.dataset.config == expected_config)) {
    ++stats_.decode_rejects;
    return std::nullopt;
  }
  have_mining_ = true;
  mining_crc_ = frame->crc;
  chain_crc_ = frame->crc;
  delta_crc_ = frame->crc;
  next_delta_ = 0;
  ++stats_.phases_loaded;
  return snap;
}

void StudyCheckpoint::SaveMining(
    const MinedDataset& dataset,
    const std::vector<obs::PhaseRecord>& profile) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_selection_);
  auto crc = journal_.Commit(kMiningFrame,
                             EncodeMiningPayload(dataset, profile),
                             selection_crc_);
  if (!crc.ok()) {
    throw PipelineError("checkpoint", "mining: " + crc.status().ToString());
  }
  have_mining_ = true;
  mining_crc_ = *crc;
  chain_crc_ = *crc;
  delta_crc_ = *crc;
  next_delta_ = 0;
  ++stats_.phases_saved;
}

std::vector<MeasurementResult> StudyCheckpoint::LoadActiveBatches(
    size_t expected_total) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_mining_);
  chain_crc_ = mining_crc_;
  next_batch_ = 0;
  results_journaled_ = 0;
  delta_crc_ = mining_crc_;
  next_delta_ = 0;
  // The study fills this vector to exactly expected_total, loaded or
  // measured, so one reservation serves both and it never regrows.
  std::vector<MeasurementResult> out;
  out.reserve(expected_total);
  if (!options_.resume) return out;
  while (out.size() < expected_total) {
    auto frame = journal_.Load(BatchFrameName(next_batch_), chain_crc_);
    if (!frame.ok()) break;
    ckpt::Reader r(frame->payload);
    uint8_t kind = 0;
    uint64_t begin = 0;
    size_t count = 0;
    if (!r.U8(&kind) || kind != kKindBatch || !r.U64(&begin) ||
        !r.Count(&count) || begin != out.size() || count == 0 ||
        begin + count > expected_total) {
      ++stats_.decode_rejects;
      break;
    }
    // Decode straight into place; a reject truncates back to the batch's
    // start, so only whole batches are ever loaded.
    out.resize(begin + count);
    bool ok = true;
    for (size_t i = begin; ok && i < out.size(); ++i) {
      ok = GetResult(r, &out[i]);
    }
    if (!ok || !r.AtEnd()) {
      out.resize(begin);
      ++stats_.decode_rejects;
      break;
    }
    chain_crc_ = frame->crc;
    ++next_batch_;
    ++stats_.batches_loaded;
    stats_.results_loaded += count;
  }
  results_journaled_ = out.size();
  return out;
}

void StudyCheckpoint::AppendActiveBatch(
    size_t begin_index, const std::vector<MeasurementResult>& results) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_mining_);
  GOVDNS_CHECK(begin_index == results_journaled_);
  ckpt::Writer w;
  w.U8(kKindBatch);
  w.U64(begin_index);
  w.Size(results.size());
  for (const MeasurementResult& res : results) PutResult(w, res);
  auto crc = journal_.Commit(BatchFrameName(next_batch_), w.Take(), chain_crc_);
  if (!crc.ok()) {
    throw PipelineError("checkpoint",
                        BatchFrameName(next_batch_) + ": " +
                            crc.status().ToString());
  }
  chain_crc_ = *crc;
  ++next_batch_;
  ++stats_.batches_saved;
  results_journaled_ += results.size();
}

void StudyCheckpoint::AppendCutCacheDelta(SharedCutCache& cache) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_mining_);
  // Positives and tombstones only: negatives live for one pass and never
  // replay from disk (see header comment).
  const std::vector<std::pair<dns::Name, SharedCutCache::Entry>> changes =
      cache.TakeChanges();
  ckpt::Writer w;
  w.U8(kKindCutCacheDelta);
  w.U64(next_delta_);
  w.Size(changes.size());
  for (const auto& [cut, entry] : changes) {
    PutName(w, cut);
    w.Bool(entry.reachable);
    if (entry.reachable) {
      PutNameList(w, entry.ns_names);
      PutAddrList(w, entry.addresses);
    }
  }
  // Its own chain rooted at mining, not the batch chain: the warm start is
  // valid whenever the mined query list is, and a damaged delta must never
  // cost a batch of results.
  const std::string name = DeltaFrameName(next_delta_);
  auto crc = journal_.Commit(name, w.Take(), delta_crc_);
  if (!crc.ok()) {
    throw PipelineError("checkpoint", name + ": " + crc.status().ToString());
  }
  delta_crc_ = *crc;
  ++next_delta_;
}

size_t StudyCheckpoint::RestoreCutCache(SharedCutCache* cache) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_mining_);
  delta_crc_ = mining_crc_;
  next_delta_ = 0;
  if (!options_.resume) return 0;
  std::map<dns::Name, SharedCutCache::Entry> folded;
  for (;;) {
    auto frame = journal_.Load(DeltaFrameName(next_delta_), delta_crc_);
    if (!frame.ok()) break;
    ckpt::Reader r(frame->payload);
    uint8_t kind = 0;
    uint64_t seq = 0;
    size_t count = 0;
    std::vector<std::pair<dns::Name, SharedCutCache::Entry>> changes;
    bool ok = r.U8(&kind) && kind == kKindCutCacheDelta && r.U64(&seq) &&
              seq == next_delta_ &&
              GetCount(r, kMinCutChangeOctets, &changes, &count);
    for (size_t i = 0; ok && i < count; ++i) {
      auto& [cut, entry] = changes.emplace_back();
      ok = GetName(r, &cut) && r.Bool(&entry.reachable) &&
           (!entry.reachable || (GetNameList(r, &entry.ns_names) &&
                                 GetAddrList(r, &entry.addresses)));
    }
    if (!ok || !r.AtEnd()) {
      ++stats_.decode_rejects;
      break;
    }
    for (auto& [cut, entry] : changes) {
      if (entry.reachable) {
        folded.insert_or_assign(std::move(cut), std::move(entry));
      } else {
        folded.erase(cut);
      }
    }
    delta_crc_ = frame->crc;
    ++next_delta_;
  }
  std::vector<std::pair<dns::Name, SharedCutCache::Entry>> entries;
  entries.reserve(folded.size());
  for (auto& [cut, entry] : folded) entries.emplace_back(cut, std::move(entry));
  const size_t restored = cache->Restore(entries);
  stats_.cache_entries_restored += static_cast<int64_t>(restored);
  return restored;
}

std::optional<StudyCheckpoint::QuarantineSnapshot>
StudyCheckpoint::TryLoadQuarantine() {
  GOVDNS_CHECK(bound_);
  if (!options_.resume || !have_mining_) return std::nullopt;
  auto frame = journal_.Load(kQuarantineFrame, chain_crc_);
  if (!frame.ok()) return std::nullopt;
  ckpt::Reader r(frame->payload);
  uint8_t kind = 0;
  QuarantineSnapshot snap;
  if (!r.U8(&kind) || kind != kKindQuarantine || !r.U64(&snap.total) ||
      !r.U64(&snap.hang) || !r.U64(&snap.blackhole) ||
      !r.U64(&snap.budget_exceeded) || !r.U64(&snap.watchdog_cancelled) ||
      !r.U64(&snap.vantage_lost) || !r.AtEnd()) {
    ++stats_.decode_rejects;
    return std::nullopt;
  }
  // The report frame chains after the quarantine frame once one exists.
  chain_crc_ = frame->crc;
  return snap;
}

void StudyCheckpoint::SaveQuarantine(const QuarantineSnapshot& snap) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_mining_);
  ckpt::Writer w;
  w.U8(kKindQuarantine);
  w.U64(snap.total);
  w.U64(snap.hang);
  w.U64(snap.blackhole);
  w.U64(snap.budget_exceeded);
  w.U64(snap.watchdog_cancelled);
  w.U64(snap.vantage_lost);
  auto crc = journal_.Commit(kQuarantineFrame, w.Take(), chain_crc_);
  if (!crc.ok()) {
    throw PipelineError("checkpoint", "quarantine: " + crc.status().ToString());
  }
  chain_crc_ = *crc;
}

void StudyCheckpoint::SaveReportJson(const std::string& json) {
  GOVDNS_CHECK(bound_);
  GOVDNS_CHECK(have_mining_);
  ckpt::Writer w;
  w.U8(kKindReport);
  w.Str(json);
  auto crc = journal_.Commit(kReportFrame, w.Take(), chain_crc_);
  if (!crc.ok()) {
    throw PipelineError("checkpoint", "report: " + crc.status().ToString());
  }
}

std::optional<std::string> StudyCheckpoint::TryLoadReportJson() {
  GOVDNS_CHECK(bound_);
  if (!options_.resume || !have_mining_) return std::nullopt;
  auto frame = journal_.Load(kReportFrame, chain_crc_);
  if (!frame.ok()) return std::nullopt;
  ckpt::Reader r(frame->payload);
  uint8_t kind = 0;
  std::string json;
  if (!r.U8(&kind) || kind != kKindReport || !r.Str(&json) || !r.AtEnd()) {
    ++stats_.decode_rejects;
    return std::nullopt;
  }
  return json;
}

void StudyCheckpoint::SaveVantage(const VantageSummary& summary) {
  GOVDNS_CHECK(bound_);
  ckpt::Writer w;
  EncodeVantageSummary(w, summary);
  auto crc = journal_.Commit(kVantageFrameName, w.Take(), /*parent_crc=*/0);
  if (!crc.ok()) {
    throw PipelineError("checkpoint", "vantage: " + crc.status().ToString());
  }
}

std::string StudyCheckpoint::StatsJson() const {
  const ckpt::JournalStats& js = journal_.stats();
  util::JsonWriter w;
  w.BeginObject();
  w.Kv("commits", static_cast<int64_t>(js.commits));
  w.Kv("bytes_written", static_cast<int64_t>(js.bytes_written));
  w.Kv("loads_ok", static_cast<int64_t>(js.loads_ok));
  w.Kv("rejections", static_cast<int64_t>(js.Rejections()));
  w.Key("rejected").BeginObject();
  w.Kv("missing", static_cast<int64_t>(js.rejected_missing));
  w.Kv("truncated", static_cast<int64_t>(js.rejected_truncated));
  w.Kv("magic", static_cast<int64_t>(js.rejected_magic));
  w.Kv("version", static_cast<int64_t>(js.rejected_version));
  w.Kv("fingerprint", static_cast<int64_t>(js.rejected_fingerprint));
  w.Kv("crc", static_cast<int64_t>(js.rejected_crc));
  w.Kv("chain", static_cast<int64_t>(js.rejected_chain));
  w.EndObject();
  w.Kv("phases_loaded", stats_.phases_loaded);
  w.Kv("phases_saved", stats_.phases_saved);
  w.Kv("batches_loaded", stats_.batches_loaded);
  w.Kv("batches_saved", stats_.batches_saved);
  w.Kv("results_loaded", stats_.results_loaded);
  w.Kv("cache_entries_restored", stats_.cache_entries_restored);
  w.Kv("decode_rejects", stats_.decode_rejects);
  w.EndObject();
  return w.TakeString();
}

}  // namespace govdns::core
