// Passive-DNS database.
//
// Models the interface the paper uses from Farsight's DNSDB: record sets
// keyed by (rrname, rrtype, rdata) carrying first-seen/last-seen timestamps
// and an observation count, with left-hand wildcard search
// ("*.gov.au" -> every record whose owner ends in gov.au) and time-window
// filtering.
//
// There is one representation: an immutable PdnsSnapshot laid out as the
// sections of a GVSN container (ckpt/snapshot_file.h, DESIGN.md §6i).
// The world generator replays ten years of synthetic zone history into a
// PdnsSnapshotBuilder, which sort-merges the sightings once and assembles
// the image in memory; the same bytes, published with
// WritePdnsSnapshotFile, are served from an mmap by PdnsSnapshot::Open.
// Either way names binary-search as raw canonical keys and entries come out
// as non-owning PdnsEntryView records pointing into the image.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/snapshot_file.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "util/civil_time.h"
#include "util/status.h"

namespace govdns::pdns {

// One entry with its owner, materialized — what WildcardSearch returns.
struct PdnsEntry {
  dns::Name rrname;
  dns::RRType type = dns::RRType::kNS;
  std::string rdata;  // presentation form, e.g. "ns1.example.com"
  util::DayInterval seen;
  uint64_t count = 0;

  friend bool operator==(const PdnsEntry&, const PdnsEntry&) = default;
};

// Non-owning view of one entry; the rdata bytes live in the snapshot image.
// The owner name is implicit — callers iterate entries grouped by owner
// index.
struct PdnsEntryView {
  dns::RRType type = dns::RRType::kNS;
  std::string_view rdata;
  util::DayInterval seen;
  uint64_t count = 0;

  friend bool operator==(const PdnsEntryView&, const PdnsEntryView&) = default;
};

// Filter for database searches.
struct Query {
  std::optional<dns::RRType> type;          // filter by type
  std::optional<util::DayInterval> window;  // keep entries overlapping it
  // Minimum first-seen-to-last-seen *gap* in days: keep iff
  //
  //     seen.last − seen.first >= min_seen_gap_days
  //
  // This is the same gap semantics as the §III-C stability filter in
  // core/mining.h (stable iff the gap reaches `stability_days`), so the two
  // filters cannot drift apart. It is deliberately NOT the inclusive
  // calendar length `DayInterval::LengthDays()` (= gap + 1); an earlier
  // revision compared LengthDays() here while mining used the gap, letting
  // one-day-longer records through on this path only. 0 keeps everything.
  int min_seen_gap_days = 0;
};

// True when `entry` passes `query`.
bool EntryMatches(const PdnsEntryView& entry, const Query& query);

// Bumped when the section shapes below change; openers reject other
// versions before touching any payload.
inline constexpr uint32_t kPdnsSnapshotFormatVersion = 1;

// Section ids inside the GVSN container.
inline constexpr uint32_t kSecPdnsMeta = 1;         // counts (varint codec)
inline constexpr uint32_t kSecPdnsNameKeys = 2;     // concatenated keys
inline constexpr uint32_t kSecPdnsNameOffsets = 3;  // (names+1) x u64
inline constexpr uint32_t kSecPdnsEntryOffsets = 4; // (names+1) x u64
inline constexpr uint32_t kSecPdnsEntries = 5;      // entries x RawPdnsEntry
inline constexpr uint32_t kSecPdnsRdata = 6;        // concatenated rdata

// One entry as it lies in the image: fixed width, natural alignment, rdata
// referenced by offset into the rdata section. 32 bytes so four entries
// share a cache line during subtree scans.
struct RawPdnsEntry {
  uint64_t rdata_off = 0;
  uint32_t rdata_len = 0;
  uint32_t type = 0;  // dns::RRType
  int32_t seen_first = 0;
  int32_t seen_last = 0;
  uint64_t count = 0;
};
static_assert(sizeof(RawPdnsEntry) == 32, "file format is 32-byte entries");

// Immutable, canonically sorted record store over one GVSN image. Owner
// names are concatenated canonical keys with 64-bit fenceposts (canonical
// order clusters a suffix's subtree into a contiguous run) and entries are
// one flat array grouped by owner, so a wildcard search is two binary
// searches plus a contiguous scan. Safe to share across threads.
class PdnsSnapshot {
 public:
  // An empty store (no names).
  PdnsSnapshot() = default;

  // Opens a published snapshot file. kFast checks the container CRCs and
  // the section shapes — O(1) in world size. kFull additionally verifies
  // every payload CRC and every interior fencepost, key and entry — O(file
  // size). Every failure is a clean kDataLoss (kNotFound for a missing
  // file), never UB.
  static util::StatusOr<PdnsSnapshot> Open(
      const std::string& path, uint64_t fingerprint,
      ckpt::SnapshotValidation validation = ckpt::SnapshotValidation::kFast);

  size_t name_count() const { return name_count_; }
  size_t entry_count() const { return entry_count_; }
  // True when served by an actual mmap rather than an owned buffer.
  bool mapped() const { return view_.mapped(); }

  // Raw canonical key of name i (dns::Name::CanonicalKey bytes).
  std::string_view name_key(size_t i) const {
    return keys_.substr(name_offsets_[i],
                        name_offsets_[i + 1] - name_offsets_[i]);
  }
  // Materializes name i.
  dns::Name name(size_t i) const;

  // Iterable range of PdnsEntryView over consecutive raw entries.
  class EntryRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PdnsEntryView;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = PdnsEntryView;

      Iterator(const RawPdnsEntry* raw, std::string_view rdata)
          : raw_(raw), rdata_(rdata) {}
      PdnsEntryView operator*() const;
      Iterator& operator++() {
        ++raw_;
        return *this;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.raw_ == b.raw_;
      }

     private:
      const RawPdnsEntry* raw_;
      std::string_view rdata_;
    };

    EntryRange(const RawPdnsEntry* begin, const RawPdnsEntry* end,
               std::string_view rdata)
        : begin_(begin), end_(end), rdata_(rdata) {}
    Iterator begin() const { return {begin_, rdata_}; }
    Iterator end() const { return {end_, rdata_}; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }

   private:
    const RawPdnsEntry* begin_;
    const RawPdnsEntry* end_;
    std::string_view rdata_;
  };

  // Entries owned by name(i), in order of their earliest sighting.
  EntryRange entries(size_t i) const { return EntriesInNameRange(i, i + 1); }

  // Every entry of every owner in the name-index range [lo, hi), as one flat
  // range — the per-owner grouping collapsed. The miner's intern pre-pass
  // (DESIGN.md §6j) only needs each entry's (type, rdata, seen), and one
  // range beats hi - lo small ones.
  EntryRange EntriesInNameRange(size_t lo, size_t hi) const {
    return {raw_entries_ + entry_offsets_[lo],
            raw_entries_ + entry_offsets_[hi], rdata_};
  }

  // Owner-index half-open range [lo, hi) of names equal to or under
  // `suffix`, by binary search over the raw keys (no Name is
  // materialized). Valid because canonical order keeps the subtree
  // contiguous: any name >= suffix that is not in the subtree differs from
  // suffix in one of its rightmost LabelCount(suffix) labels and therefore
  // sorts after every subtree member.
  std::pair<size_t, size_t> WildcardNameRange(const dns::Name& suffix) const;

  // Every subtree entry matching `query`, materialized, in canonical order.
  std::vector<PdnsEntry> WildcardSearch(const dns::Name& suffix,
                                        const Query& query = Query()) const;

 private:
  friend class PdnsSnapshotBuilder;
  friend util::Status WritePdnsSnapshotFile(const PdnsSnapshot& snap,
                                            uint64_t fingerprint,
                                            const std::string& dir,
                                            const std::string& path);

  static util::StatusOr<PdnsSnapshot> FromView(
      ckpt::SnapshotFileView view, const std::string& origin,
      ckpt::SnapshotValidation validation);

  // Fenceposts of the empty store, so the accessors need no special case.
  static constexpr uint64_t kNoFenceposts[1] = {0};

  ckpt::SnapshotFileView view_;
  size_t name_count_ = 0;
  size_t entry_count_ = 0;
  std::string_view keys_;
  const uint64_t* name_offsets_ = kNoFenceposts;   // name_count_ + 1
  const uint64_t* entry_offsets_ = kNoFenceposts;  // name_count_ + 1
  const RawPdnsEntry* raw_entries_ = nullptr;
  std::string_view rdata_;
};

// Publishes `snap` atomically (tmp + fsync + rename) at `path` inside
// directory `dir`, stamped with `fingerprint`, the world/config identity
// readers must present. The sections are written as they are.
util::Status WritePdnsSnapshotFile(const PdnsSnapshot& snap,
                                   uint64_t fingerprint,
                                   const std::string& dir,
                                   const std::string& path);

// Collects sightings and lowers them into a PdnsSnapshot in one sort-merge.
//
// Sightings of one (rrname, type, rdata) key within `merge_gap_days` of
// each other coalesce into one entry spanning both, with their counts
// summed; a longer silence starts a new entry (mirrors how sensor databases
// fence quiet periods). 0 means only adjacent/overlapping days merge. Each
// owner's entries are ordered by their earliest sighting, in the order
// Observe calls arrived.
class PdnsSnapshotBuilder {
 public:
  explicit PdnsSnapshotBuilder(int merge_gap_days = 30);

  // Records that (rrname, type, rdata) was observed on `day`.
  void Observe(const dns::Name& rrname, dns::RRType type,
               const std::string& rdata, util::CivilDay day,
               uint64_t count = 1) {
    ObserveInterval(rrname, type, rdata, {day, day}, count);
  }

  // Records continuous observation across an inclusive day interval.
  void ObserveInterval(const dns::Name& rrname, dns::RRType type,
                       const std::string& rdata, util::DayInterval interval,
                       uint64_t count_per_day = 1);

  // Coalesces the sightings (in place: the builder stays usable) and
  // assembles the snapshot image in memory.
  PdnsSnapshot Build();

 private:
  struct Sighting {
    uint32_t owner = 0;  // index into owners_
    uint32_t rdata = 0;  // index into rdatas_
    uint32_t order = 0;  // earliest Observe call folded in
    dns::RRType type = dns::RRType::kNS;
    util::DayInterval seen;
    uint64_t count = 0;
  };

  int merge_gap_days_;
  uint32_t observed_ = 0;  // Observe calls so far
  std::vector<Sighting> sightings_;
  // One name per run of sightings of the same owner (sightings of one
  // owner mostly arrive together); Build() merges runs of one name.
  std::vector<dns::Name> owners_;
  std::vector<std::string> rdatas_;
  std::unordered_map<std::string, uint32_t> rdata_ids_;
};

}  // namespace govdns::pdns
