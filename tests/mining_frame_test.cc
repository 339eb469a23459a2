// The mining frame's payload codec (core/study_ckpt.h) against the codec it
// replaced, and the checkpoint decoders' reservation bound.
//
// MiningFrameOracle keeps the previous encoder and decoder, which worked on
// a nested dataset (one vector of years per domain, one vector of ids per
// year), as ReferenceEncodeMining and ReferenceDecodeMining over a nested
// struct of this file's own. The column codec must write the reference's
// bytes for the same dataset and profile, and must accept exactly the
// payloads the reference accepts, decoding them to the same rows.
// MiningFrameBound checks that a count the frame cannot hold reserves
// nothing large (in a mining, a selection and a vantage frame), and that
// decoding a frame allocates a number of heap blocks independent of its
// domain count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/journal.h"
#include "ckpt/serial.h"
#include "core/mining.h"
#include "core/study_ckpt.h"
#include "core/vantage.h"
#include "tests/mined_datasets.h"
#include "util/pool.h"
#include "util/rng.h"

// This binary's global allocator counts requests and records the largest
// one made while tracking is on, so a test can see what a decode asks the
// heap for. Every form the program's new-expressions and the standard
// library pair with these is replaced, so a sanitizer runtime's own
// operator new never frees memory this one allocated. The deletes stay out
// of line: inlined, the compiler would see free() meet a pointer from
// operator new and warn of a mismatch that this pairing rules out.
namespace {
std::atomic<bool> g_track_requests{false};
std::atomic<size_t> g_largest_request{0};
std::atomic<size_t> g_requests{0};

void* TrackedAlloc(std::size_t size) noexcept {
  if (g_track_requests.load(std::memory_order_relaxed)) {
    g_requests.fetch_add(1, std::memory_order_relaxed);
    size_t seen = g_largest_request.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_request.compare_exchange_weak(seen, size)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = TrackedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace govdns::core {
namespace {

namespace fs = std::filesystem;

// Heap requests made while a HeapWatch is alive.
class HeapWatch {
 public:
  HeapWatch() {
    g_requests.store(0);
    g_largest_request.store(0);
    g_track_requests.store(true);
  }
  ~HeapWatch() { g_track_requests.store(false); }
  size_t requests() const { return g_requests.load(); }
  size_t largest() const { return g_largest_request.load(); }
};

// ---- the previous codec, over a nested dataset ------------------------------

struct RefYear {
  int32_t mode = 0;
  std::vector<int32_t> ns_ids;
};

struct RefDomain {
  dns::Name name;
  int country = -1;
  int seed_index = -1;
  std::vector<RefYear> years;
  bool disposable = false;
  bool in_active_window = false;
};

struct RefDataset {
  MiningConfig config;
  std::vector<std::string> ns_names;
  std::vector<RefDomain> domains;
  MiningStats stats;
};

constexpr uint8_t kKindMining = 2;

// The configured year count, computed wide: a decoder reads the years from
// untrusted bytes, and the int expression MiningConfig::year_count() uses
// can overflow on them.
int64_t WideYearCount(const MiningConfig& c) {
  return int64_t{c.last_year} - int64_t{c.first_year} + 1;
}

void RefPutName(ckpt::Writer& w, const dns::Name& name) {
  w.U8(static_cast<uint8_t>(name.LabelCount()));
  for (const std::string_view label : name.labels()) w.Str(label);
}

bool RefGetName(ckpt::Reader& r, dns::Name* out) {
  uint8_t count = 0;
  if (!r.U8(&count) || count > dns::Name::kMaxLabels) return false;
  std::array<std::string_view, dns::Name::kMaxLabels> labels;
  for (uint8_t i = 0; i < count; ++i) {
    if (!r.View(&labels[i])) return false;
  }
  auto name = dns::Name::FromLabels(std::span(labels.data(), count));
  if (!name.ok()) return false;
  *out = *std::move(name);
  return true;
}

void RefPutMiningConfig(ckpt::Writer& w, const MiningConfig& c) {
  w.I32(c.first_year);
  w.I32(c.last_year);
  w.I32(c.stability_days);
  w.U8(static_cast<uint8_t>(c.statistic));
  w.I32(c.active_window.first);
  w.I32(c.active_window.last);
  w.Bool(c.filter_disposable);
  w.Bool(c.require_stable_for_active);
}

bool RefGetMiningConfig(ckpt::Reader& r, MiningConfig* c) {
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

void RefPutProfile(ckpt::Writer& w,
                   const std::vector<obs::PhaseRecord>& records) {
  w.Size(records.size());
  for (const obs::PhaseRecord& rec : records) {
    w.Str(rec.name);
    w.I64(rec.items);
    w.U64(rec.logical_ms);
    w.F64(rec.wall_ms);
  }
}

bool RefGetProfile(ckpt::Reader& r, std::vector<obs::PhaseRecord>* out) {
  size_t count = 0;
  if (!r.Count(&count)) return false;
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    obs::PhaseRecord& rec = (*out)[i];
    if (!r.Str(&rec.name) || !r.I64(&rec.items) || !r.U64(&rec.logical_ms) ||
        !r.F64(&rec.wall_ms)) {
      return false;
    }
  }
  return true;
}

std::string ReferenceEncodeMining(
    const RefDataset& dataset, const std::vector<obs::PhaseRecord>& profile) {
  ckpt::Writer w;
  w.U8(kKindMining);
  RefPutMiningConfig(w, dataset.config);
  w.Size(dataset.ns_names.size());
  for (const std::string& name : dataset.ns_names) w.Str(name);
  w.Size(dataset.domains.size());
  for (const RefDomain& dom : dataset.domains) {
    RefPutName(w, dom.name);
    w.I32(dom.country);
    w.I32(dom.seed_index);
    w.Size(dom.years.size());
    for (const RefYear& ys : dom.years) {
      w.I32(ys.mode);
      w.Size(ys.ns_ids.size());
      for (const int32_t id : ys.ns_ids) w.I32(id);
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
  RefPutProfile(w, profile);
  return w.Take();
}

// The previous decoder, without the journal and the config comparison
// around it. The vectors are sized as it sized them, count first; only the
// year count is computed wide (WideYearCount).
bool ReferenceDecodeMining(std::string_view payload, RefDataset* dataset,
                           std::vector<obs::PhaseRecord>* profile) {
  ckpt::Reader r(payload);
  uint8_t kind = 0;
  bool ok = r.U8(&kind) && kind == kKindMining &&
            RefGetMiningConfig(r, &dataset->config);
  size_t ns_count = 0;
  ok = ok && r.Count(&ns_count);
  if (ok) {
    dataset->ns_names.resize(ns_count);
    for (size_t i = 0; ok && i < ns_count; ++i) {
      ok = r.Str(&dataset->ns_names[i]);
    }
  }
  size_t domain_count = 0;
  ok = ok && r.Count(&domain_count);
  if (ok) {
    dataset->domains.resize(domain_count);
    for (size_t i = 0; ok && i < domain_count; ++i) {
      RefDomain& dom = dataset->domains[i];
      size_t year_count = 0;
      ok = RefGetName(r, &dom.name) && r.I32(&dom.country) &&
           dom.country >= -1 && r.I32(&dom.seed_index) &&
           r.Count(&year_count) &&
           static_cast<int64_t>(year_count) == WideYearCount(dataset->config);
      if (ok) {
        dom.years.resize(year_count);
        for (size_t y = 0; ok && y < year_count; ++y) {
          RefYear& ys = dom.years[y];
          size_t id_count = 0;
          ok = r.I32(&ys.mode) && r.Count(&id_count);
          if (ok) {
            ys.ns_ids.resize(id_count);
            for (size_t k = 0; ok && k < id_count; ++k) {
              ok = r.I32(&ys.ns_ids[k]) && ys.ns_ids[k] >= 0 &&
                   static_cast<size_t>(ys.ns_ids[k]) < ns_count;
            }
          }
        }
      }
      ok = ok && r.Bool(&dom.disposable) && r.Bool(&dom.in_active_window);
    }
  }
  MiningStats& s = dataset->stats;
  return ok && r.I64(&s.seeds) && r.I64(&s.entries_scanned) &&
         r.I64(&s.entries_unstable) && r.I64(&s.domains) &&
         r.I64(&s.domains_disposable) && r.I64(&s.domains_in_active_window) &&
         RefGetProfile(r, profile) && r.AtEnd();
}

// The nested form of a column dataset, read straight off its columns.
RefDataset Nest(const MinedDataset& mined) {
  RefDataset out;
  out.config = mined.config;
  out.stats = mined.stats;
  for (size_t i = 0; i < mined.ns_ends.size(); ++i) {
    const size_t begin = i == 0 ? 0 : mined.ns_ends[i - 1];
    out.ns_names.push_back(
        mined.ns_bytes.substr(begin, mined.ns_ends[i] - begin));
  }
  const size_t years = static_cast<size_t>(mined.config.year_count());
  for (size_t d = 0; d < mined.domains.size(); ++d) {
    const MinedDomain& dom = mined.domains[d];
    RefDomain& nested = out.domains.emplace_back();
    nested.name = dom.name;
    nested.country = dom.country;
    nested.seed_index = dom.seed_index;
    nested.disposable = dom.disposable;
    nested.in_active_window = dom.in_active_window;
    for (size_t y = 0; y < years; ++y) {
      const size_t row = d * years + y;
      RefYear& year = nested.years.emplace_back();
      year.mode = mined.modes[row];
      year.ns_ids.assign(mined.ns_ids.begin() + mined.ids_begin[row],
                         mined.ns_ids.begin() + mined.ids_begin[row + 1]);
    }
  }
  return out;
}

// Row by row: each domain's name, country, seed index and flags, each
// row's mode and ids, the NS names, the stats and the columns' shape.
::testing::AssertionResult SameRows(const MinedDataset& got,
                                    const RefDataset& want) {
  if (!(got.config == want.config)) {
    return ::testing::AssertionFailure() << "config differs";
  }
  if (testing::NsNames(got) != want.ns_names) {
    return ::testing::AssertionFailure() << "ns names differ";
  }
  if (!(got.stats == want.stats)) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  if (got.domains.size() != want.domains.size()) {
    return ::testing::AssertionFailure()
           << got.domains.size() << " domains, reference "
           << want.domains.size();
  }
  size_t rows = 0;
  for (const RefDomain& dom : want.domains) rows += dom.years.size();
  if (got.modes.size() != rows || got.ids_begin.size() != rows + 1 ||
      got.ids_begin.front() != 0 ||
      got.ids_begin.back() != got.ns_ids.size()) {
    return ::testing::AssertionFailure() << "columns out of shape";
  }
  for (size_t d = 0; d < want.domains.size(); ++d) {
    const MinedDomain& g = got.domains[d];
    const RefDomain& w = want.domains[d];
    if (g.name != w.name || g.country != w.country ||
        g.seed_index != w.seed_index || g.disposable != w.disposable ||
        g.in_active_window != w.in_active_window) {
      return ::testing::AssertionFailure() << "domain " << d << " differs";
    }
    for (size_t y = 0; y < w.years.size(); ++y) {
      const int year = static_cast<int>(y);
      const auto ids = got.NsIds(d, year);
      if (got.Mode(d, year) != w.years[y].mode ||
          !std::equal(ids.begin(), ids.end(), w.years[y].ns_ids.begin(),
                      w.years[y].ns_ids.end())) {
        return ::testing::AssertionFailure()
               << "domain " << d << " year " << y << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<obs::PhaseRecord> SomeProfile() {
  return {{"mining.freeze", 1234, 0, 0.5},
          {"mining.fold.intern.merge", 77, 3, 12.25},
          {"mining", 42, 0, 99.0}};
}

// The datasets whose frames the oracle checks: RandomDataset seeds 0-15
// and the checkpoint tests' one-domain dataset.
std::vector<MinedDataset> OracleDatasets() {
  std::vector<MinedDataset> datasets;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    datasets.push_back(testing::RandomDataset(seed));
  }
  datasets.push_back(testing::SeedPhasesDataset());
  return datasets;
}

TEST(MiningFrameOracle, EncoderMatchesReferenceBytes) {
  for (const MinedDataset& dataset : OracleDatasets()) {
    const std::string bytes = EncodeMiningPayload(dataset, SomeProfile());
    ASSERT_EQ(bytes, ReferenceEncodeMining(Nest(dataset), SomeProfile()));
    StudyCheckpoint::MiningSnapshot snap;
    ASSERT_TRUE(DecodeMiningPayload(bytes, &snap));
    EXPECT_TRUE(snap.dataset == dataset);
    ASSERT_EQ(snap.profile.size(), SomeProfile().size());
    for (size_t i = 0; i < snap.profile.size(); ++i) {
      EXPECT_EQ(snap.profile[i].name, SomeProfile()[i].name);
      EXPECT_EQ(snap.profile[i].items, SomeProfile()[i].items);
      EXPECT_EQ(snap.profile[i].logical_ms, SomeProfile()[i].logical_ms);
      EXPECT_EQ(snap.profile[i].wall_ms, SomeProfile()[i].wall_ms);
    }
  }
}

// Where the count varints, the ids and the countries of a valid payload
// sit, found by walking it.
struct FrameSites {
  size_t ns_count = 0;
  size_t domain_count = 0;
  std::vector<size_t> year_counts;
  std::vector<size_t> id_counts;
  std::vector<size_t> ids;
  std::vector<size_t> countries;
};

FrameSites FindFrameSites(std::string_view payload) {
  ckpt::Reader r(payload);
  auto at = [&] { return payload.size() - r.remaining(); };
  FrameSites sites;
  uint8_t u8 = 0;
  int32_t i32 = 0;
  uint64_t size = 0;
  std::string_view view;
  MiningConfig config;
  GOVDNS_CHECK(r.U8(&u8) && RefGetMiningConfig(r, &config));
  sites.ns_count = at();
  GOVDNS_CHECK(r.Size(&size));
  for (uint64_t i = 0; i < size; ++i) GOVDNS_CHECK(r.View(&view));
  sites.domain_count = at();
  uint64_t domains = 0;
  GOVDNS_CHECK(r.Size(&domains));
  for (uint64_t d = 0; d < domains; ++d) {
    dns::Name name;
    GOVDNS_CHECK(RefGetName(r, &name));
    sites.countries.push_back(at());
    GOVDNS_CHECK(r.I32(&i32) && r.I32(&i32));
    sites.year_counts.push_back(at());
    uint64_t years = 0;
    GOVDNS_CHECK(r.Size(&years));
    for (uint64_t y = 0; y < years; ++y) {
      GOVDNS_CHECK(r.I32(&i32));
      sites.id_counts.push_back(at());
      uint64_t ids = 0;
      GOVDNS_CHECK(r.Size(&ids));
      for (uint64_t k = 0; k < ids; ++k) {
        sites.ids.push_back(at());
        GOVDNS_CHECK(r.I32(&i32));
      }
    }
    GOVDNS_CHECK(r.U8(&u8) && r.U8(&u8));
  }
  return sites;
}

// Replaces the varint at `at` with `value`'s minimal encoding (the payload
// may grow or shrink), or overwrites its first byte with a raw value that
// may leave it non-minimal, overlong or of another length.
void EditVarint(util::Rng& rng, size_t at, std::string& payload) {
  if (at >= payload.size()) return;
  if (rng.Bernoulli(0.3)) {
    const uint8_t kBytes[] = {0x00, 0x01, 0x7F, 0x80, 0xFF,
                              static_cast<uint8_t>(rng.NextU64())};
    payload[at] = static_cast<char>(kBytes[rng.UniformU64(std::size(kBytes))]);
    return;
  }
  ckpt::Reader r(std::string_view(payload).substr(at));
  uint64_t old = 0;
  if (!r.Size(&old)) return;
  const size_t length = payload.size() - at - r.remaining();
  const uint64_t kValues[] = {0,
                              old + 1,
                              old - 1,
                              old + 2,
                              payload.size(),
                              payload.size() - at,
                              uint64_t{1} << 32,
                              rng.UniformU64(1000)};
  ckpt::Writer w;
  w.Size(kValues[rng.UniformU64(std::size(kValues))]);
  payload.replace(at, length, w.Take());
}

void EditI32(util::Rng& rng, size_t at, std::string& payload,
             std::span<const int32_t> values) {
  if (at + 4 > payload.size()) return;
  const int32_t v = rng.Bernoulli(0.2) ? static_cast<int32_t>(rng.NextU64())
                                       : values[rng.UniformU64(values.size())];
  for (int i = 0; i < 4; ++i) {
    payload[at + static_cast<size_t>(i)] =
        static_cast<char>(static_cast<uint32_t>(v) >> (8 * i));
  }
}

// Applies one random mutation: bit flips, a truncation, an edit to the ns,
// domain, year or id count varint, or an id or country edit.
void Mutate(util::Rng& rng, const FrameSites& sites, size_t ns_count,
            std::string& payload) {
  const auto pick = [&](const std::vector<size_t>& v) {
    return v.empty() ? payload.size() : v[rng.UniformU64(v.size())];
  };
  switch (rng.UniformU64(8)) {
    case 0:
      for (uint64_t k = 1 + rng.UniformU64(3); k > 0; --k) {
        payload[rng.UniformU64(payload.size())] ^=
            static_cast<char>(1u << rng.UniformU64(8));
      }
      return;
    case 1:
      payload.resize(rng.UniformU64(payload.size()));
      return;
    case 2:
      EditVarint(rng, sites.ns_count, payload);
      return;
    case 3:
      EditVarint(rng, sites.domain_count, payload);
      return;
    case 4:
      EditVarint(rng, pick(sites.year_counts), payload);
      return;
    case 5:
      EditVarint(rng, pick(sites.id_counts), payload);
      return;
    case 6: {
      const int32_t n = static_cast<int32_t>(ns_count);
      const int32_t kIds[] = {-1, 0, n - 1, n, n + 1, INT32_MAX, INT32_MIN};
      EditI32(rng, pick(sites.ids), payload, kIds);
      return;
    }
    default: {
      const int32_t kCountries[] = {-2, -1, 0, 12, INT32_MAX, INT32_MIN};
      EditI32(rng, pick(sites.countries), payload, kCountries);
      return;
    }
  }
}

// Decodes mutant `index` of the sweep with both decoders into the caller's
// outputs. Empty when they agree; otherwise what differs.
struct OracleCorpus {
  std::vector<std::string> frames;
  std::vector<FrameSites> sites;
  std::vector<size_t> ns_counts;
};

struct DecoderOutputs {
  StudyCheckpoint::MiningSnapshot snap;
  RefDataset reference;
  std::vector<obs::PhaseRecord> reference_profile;
};

std::string CheckMutant(const OracleCorpus& corpus, size_t index,
                        std::string& mutant, DecoderOutputs& out,
                        bool* accepted) {
  const size_t base = index % corpus.frames.size();
  util::Rng rng(uint64_t{20211} * 1000003 + index);
  mutant = corpus.frames[base];
  for (uint64_t k = 1 + rng.UniformU64(2); k > 0 && !mutant.empty(); --k) {
    Mutate(rng, corpus.sites[base], corpus.ns_counts[base], mutant);
  }
  const bool decoded = DecodeMiningPayload(mutant, &out.snap);
  const bool reference_ok =
      ReferenceDecodeMining(mutant, &out.reference, &out.reference_profile);
  *accepted = decoded;
  const std::string where = "mutant " + std::to_string(index) + " of frame " +
                            std::to_string(base) + " (" +
                            std::to_string(mutant.size()) + " bytes): ";
  if (decoded != reference_ok) {
    return where + (decoded ? "accepted" : "rejected") + ", the reference " +
           (reference_ok ? "accepts" : "rejects");
  }
  if (!decoded) return "";
  if (const auto rows = SameRows(out.snap.dataset, out.reference); !rows) {
    return where + rows.message();
  }
  if (out.snap.profile.size() != out.reference_profile.size()) {
    return where + "profile sizes differ";
  }
  for (size_t p = 0; p < out.snap.profile.size(); ++p) {
    const obs::PhaseRecord& a = out.snap.profile[p];
    const obs::PhaseRecord& b = out.reference_profile[p];
    if (a.name != b.name || a.items != b.items ||
        a.logical_ms != b.logical_ms) {
      return where + "profile record " + std::to_string(p) + " differs";
    }
  }
  return "";
}

TEST(MiningFrameOracle, MutantsDecodeLikeTheReference) {
  OracleCorpus corpus;
  for (const MinedDataset& dataset : OracleDatasets()) {
    corpus.frames.push_back(EncodeMiningPayload(dataset, SomeProfile()));
    corpus.sites.push_back(FindFrameSites(corpus.frames.back()));
    corpus.ns_counts.push_back(dataset.ns_count());
  }

  // Each mutant draws from its own seeded Rng, so the sweep is the same at
  // any worker count. Both decoders assign every field of what they
  // accept, so each worker reuses one set of outputs per corpus frame,
  // which keeps the reference's allocations (a vector per domain and per
  // year) out of the sweep's time.
  constexpr size_t kMutants = 100000;
  const int workers = util::PoolWorkers(4, kMutants);
  std::atomic<size_t> next{0};
  std::atomic<size_t> accepted{0};
  std::vector<std::string> failures(static_cast<size_t>(workers));
  util::RunOnPool(workers, [&](int w) {
    std::vector<DecoderOutputs> outputs(corpus.frames.size());
    std::string mutant;
    size_t local_accepted = 0;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= kMutants) break;
      bool ok = false;
      std::string failure = CheckMutant(
          corpus, i, mutant, outputs[i % corpus.frames.size()], &ok);
      if (!failure.empty()) {
        failures[static_cast<size_t>(w)] = std::move(failure);
        next.store(kMutants);
        break;
      }
      local_accepted += ok;
    }
    accepted += local_accepted;
  });
  for (const std::string& failure : failures) {
    ASSERT_TRUE(failure.empty()) << failure;
  }
  // Both verdicts must be well represented for the sweep to mean much.
  EXPECT_GT(accepted.load(), kMutants / 20);
  EXPECT_LT(accepted.load(), kMutants / 2);
}

// ---- the reservation bound ---------------------------------------------------

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_mining_frame_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

// A journal holding the selection of the checkpoint tests' one-seed study,
// chained with valid CRCs to `mining_payload` as its mining frame, so only
// the decoders can refuse either. An empty `selection_payload` keeps the
// checkpoint's own selection frame.
void CommitCrafted(const std::string& dir, const std::string& selection_payload,
                   const std::string& mining_payload) {
  {
    StudyCheckpoint ckpt(dir, 77);
    ckpt.Bind(11);
    StudyCheckpoint::SelectionSnapshot sel;
    SeedDomain seed;
    seed.country = 0;
    seed.d_gov = dns::Name::FromString("gov.aa");
    sel.seeds.push_back(seed);
    sel.stats.total = 1;
    ckpt.SaveSelection(sel);
  }
  ckpt::Journal journal(dir, ckpt::MixFingerprint(77, 11));
  if (!selection_payload.empty()) {
    ASSERT_TRUE(journal.Commit("selection", selection_payload, 0).ok());
  }
  auto selection = journal.Load("selection", 0);
  ASSERT_TRUE(selection.ok());
  if (!mining_payload.empty()) {
    ASSERT_TRUE(
        journal.Commit("mining", mining_payload, selection->crc).ok());
  }
}

// A payload of `head`, a count varint, and `bytes` copies of `fill`.
std::string CraftedCount(const std::string& head, size_t count, size_t bytes,
                         char fill) {
  ckpt::Writer w;
  w.Raw(head);
  w.Size(count);
  w.Raw(std::string(bytes, fill));
  return w.Take();
}

TEST(MiningFrameBound, CraftedDomainCountIsOneBoundedReject) {
  ckpt::Writer head;
  head.U8(kKindMining);
  RefPutMiningConfig(head, MiningConfig{});
  head.Size(0);  // no NS names
  // As many domains as bytes behind the count, all zero.
  const std::string payload =
      CraftedCount(head.Take(), 1'000'000, 1'000'000, '\0');
  ASSERT_EQ(payload.size(), 1'000'028u);

  const std::string dir = TempDir("domains");
  CommitCrafted(dir, "", payload);
  StudyCheckpointOptions opts;
  opts.resume = true;
  StudyCheckpoint resumed(dir, 77, opts);
  resumed.Bind(11);
  ASSERT_TRUE(resumed.TryLoadSelection().has_value());
  size_t largest = 0;
  {
    HeapWatch watch;
    EXPECT_FALSE(resumed.TryLoadMining(MiningConfig{}).has_value());
    largest = watch.largest();
  }
  EXPECT_EQ(resumed.stats().decode_rejects, 1);
  EXPECT_EQ(resumed.journal_stats().Rejections(), 0u);
  // Reading the frame itself asks for its size; nothing may ask for more
  // than twice that (the decoder before the bound reserved 72 bytes per
  // claimed domain, about 72 MB here).
  EXPECT_LT(largest, 2 * payload.size());
  fs::remove_all(dir);
}

TEST(MiningFrameBound, CraftedSeedCountIsOneBoundedReject) {
  const std::string head(1, '\1');  // the selection frame's kind tag
  // As many seeds as bytes, all zero; and as many as the bytes could hold
  // at a seed's 7-octet floor, behind them a first seed that cannot decode
  // (its name claims 255 labels). A seed is bigger in memory than on the
  // wire, so only the reservation cap keeps the second one small.
  const std::string payloads[] = {
      CraftedCount(head, 1'000'000, 1'000'000, '\0'),
      CraftedCount(head, 1'000'000 / 7, 1'000'000, '\xFF'),
  };
  for (const std::string& payload : payloads) {
    const std::string dir = TempDir("seeds");
    CommitCrafted(dir, payload, "");
    StudyCheckpointOptions opts;
    opts.resume = true;
    StudyCheckpoint resumed(dir, 77, opts);
    resumed.Bind(11);
    size_t largest = 0;
    {
      HeapWatch watch;
      EXPECT_FALSE(resumed.TryLoadSelection().has_value());
      largest = watch.largest();
    }
    EXPECT_EQ(resumed.stats().decode_rejects, 1);
    EXPECT_EQ(resumed.journal_stats().Rejections(), 0u);
    EXPECT_LT(largest, 2 * payload.size());
    fs::remove_all(dir);
  }
}

TEST(MiningFrameBound, CraftedVantageCountryCountIsOneBoundedReject) {
  // A vantage summary without countries, its zero count cut off, then as
  // many countries as bytes behind the count, all zero.
  ckpt::Writer w;
  VantageSummary summary;
  summary.name = "v0";
  summary.fingerprint = 77;
  EncodeVantageSummary(w, summary);
  std::string head = w.Take();
  head.pop_back();
  const std::string payload = CraftedCount(head, 1'000'000, 1'000'000, '\0');

  const std::string dir = TempDir("vantage");
  {
    ckpt::Journal journal(dir, 77);
    ASSERT_TRUE(journal.Commit(kVantageFrameName, payload, 0).ok());
  }
  size_t largest = 0;
  {
    HeapWatch watch;
    EXPECT_FALSE(LoadVantageSummary(dir, 77).has_value());
    largest = watch.largest();
  }
  // Reading the frame itself asks for its size; nothing may ask for more
  // than twice that (the decoder before the bound resized to the count
  // checked at one octet per 80-byte row, about 80 MB here).
  EXPECT_LT(largest, 2 * payload.size());
  fs::remove_all(dir);
}

// `domains` domains named d<i>.gov.aa (at most 30 octets), every year with
// mode 5 and five ids.
MinedDataset WideDataset(size_t domains) {
  MinedDataset mined;
  for (int i = 0; i < 50; ++i) {
    mined.AppendNsName("ns" + std::to_string(i) + ".host.zz");
  }
  for (size_t d = 0; d < domains; ++d) {
    MinedDomain dom;
    dom.name = dns::Name::FromString("d" + std::to_string(d) + ".gov.aa");
    dom.country = static_cast<int>(d % 7);
    dom.seed_index = static_cast<int>(d % 3);
    dom.in_active_window = d % 2 == 0;
    mined.domains.push_back(std::move(dom));
    for (int y = 0; y < mined.config.year_count(); ++y) {
      const int32_t first = static_cast<int32_t>((d + y) % 45);
      const int32_t ids[] = {first, first + 1, first + 2, first + 3,
                             first + 4};
      testing::AppendRow(mined, 5, ids);
    }
  }
  mined.stats.domains = static_cast<int64_t>(domains);
  return mined;
}

TEST(MiningFrameBound, DecodeAllocationsDoNotGrowWithDomains) {
  size_t requests[2] = {0, 0};
  size_t reference_requests[2] = {0, 0};
  const size_t sizes[2] = {2'000, 20'000};
  for (int i = 0; i < 2; ++i) {
    const MinedDataset mined = WideDataset(sizes[i]);
    const std::string payload = EncodeMiningPayload(mined, SomeProfile());
    {
      StudyCheckpoint::MiningSnapshot snap;
      HeapWatch watch;
      ASSERT_TRUE(DecodeMiningPayload(payload, &snap));
      requests[i] = watch.requests();
      EXPECT_TRUE(snap.dataset == mined);
    }
    {
      RefDataset reference;
      std::vector<obs::PhaseRecord> profile;
      HeapWatch watch;
      ASSERT_TRUE(ReferenceDecodeMining(payload, &reference, &profile));
      reference_requests[i] = watch.requests();
    }
  }
  const size_t gap = requests[1] > requests[0] ? requests[1] - requests[0]
                                               : requests[0] - requests[1];
  EXPECT_LE(gap, 32u) << requests[0] << " and " << requests[1]
                      << " allocations";
  // The nested layout made one allocation per domain and one per year with
  // ids: the pin's teeth.
  EXPECT_GE(reference_requests[1] - reference_requests[0],
            (sizes[1] - sizes[0]) * 11);
}

}  // namespace
}  // namespace govdns::core
