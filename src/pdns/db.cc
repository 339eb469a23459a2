#include "pdns/db.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <tuple>

#include "ckpt/serial.h"

namespace govdns::pdns {

namespace {

// Section ids in file order.
constexpr uint32_t kSections[] = {kSecPdnsMeta,         kSecPdnsNameKeys,
                                  kSecPdnsNameOffsets,  kSecPdnsEntryOffsets,
                                  kSecPdnsEntries,      kSecPdnsRdata};

// Images built in memory are never published under this identity:
// WritePdnsSnapshotFile re-stamps them with the caller's fingerprint.
constexpr uint64_t kInMemoryFingerprint = 0;

util::Status Corrupt(const std::string& origin, const std::string& what) {
  return util::DataLossError("pdns snapshot " + origin + ": " + what);
}

bool KnownRRType(uint32_t t) {
  switch (static_cast<dns::RRType>(t)) {
    case dns::RRType::kA:
    case dns::RRType::kNS:
    case dns::RRType::kCNAME:
    case dns::RRType::kSOA:
    case dns::RRType::kPTR:
    case dns::RRType::kMX:
    case dns::RRType::kTXT:
    case dns::RRType::kAAAA:
      return true;
  }
  return false;
}

// True when `offsets[0..count]` never decreases (the caller has checked
// both ends, so no fencepost can then lie outside them).
bool Monotonic(const uint64_t* offsets, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  return true;
}

template <typename T>
void AppendRaw(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

}  // namespace

bool EntryMatches(const PdnsEntryView& entry, const Query& query) {
  if (query.type && entry.type != *query.type) return false;
  if (query.window && !entry.seen.Overlaps(*query.window)) return false;
  // Gap semantics, matching the §III-C stability filter (see db.h).
  return entry.seen.last - entry.seen.first >= query.min_seen_gap_days;
}

util::StatusOr<PdnsSnapshot> PdnsSnapshot::Open(
    const std::string& path, uint64_t fingerprint,
    ckpt::SnapshotValidation validation) {
  auto view = ckpt::SnapshotFileView::Open(path, kPdnsSnapshotFormatVersion,
                                           fingerprint, validation);
  if (!view.ok()) return view.status();
  return FromView(*std::move(view), path, validation);
}

util::StatusOr<PdnsSnapshot> PdnsSnapshot::FromView(
    ckpt::SnapshotFileView view, const std::string& origin,
    ckpt::SnapshotValidation validation) {
  if (std::endian::native != std::endian::little) {
    return util::InternalError(
        "snapshot files are little-endian; this host is not");
  }
  auto meta = view.Section(kSecPdnsMeta);
  auto keys = view.Section(kSecPdnsNameKeys);
  auto name_off = view.Section(kSecPdnsNameOffsets);
  auto entry_off = view.Section(kSecPdnsEntryOffsets);
  auto entry_bytes = view.Section(kSecPdnsEntries);
  auto rdata = view.Section(kSecPdnsRdata);
  for (const auto* s : {&meta, &keys, &name_off, &entry_off, &entry_bytes,
                        &rdata}) {
    if (!s->ok()) return s->status();
  }

  ckpt::Reader r(*meta);
  uint64_t name_count = 0, entry_count = 0;
  if (!r.Size(&name_count) || !r.Size(&entry_count) || !r.AtEnd()) {
    return Corrupt(origin, "bad meta section");
  }
  // Compared by division: a product of a crafted count could wrap to the
  // size of an empty section.
  auto holds_fenceposts = [name_count](std::string_view s) {
    return s.size() % sizeof(uint64_t) == 0 &&
           s.size() / sizeof(uint64_t) >= 1 &&
           s.size() / sizeof(uint64_t) - 1 == name_count;
  };
  if (!holds_fenceposts(*name_off) || !holds_fenceposts(*entry_off)) {
    return Corrupt(origin, "fencepost section size mismatch");
  }
  if (entry_bytes->size() % sizeof(RawPdnsEntry) != 0 ||
      entry_bytes->size() / sizeof(RawPdnsEntry) != entry_count) {
    return Corrupt(origin, "entry section size mismatch");
  }

  PdnsSnapshot out;
  out.name_count_ = static_cast<size_t>(name_count);
  out.entry_count_ = static_cast<size_t>(entry_count);
  out.keys_ = *keys;
  out.rdata_ = *rdata;
  // Sections start 64-byte aligned (the container checks), so these casts
  // honor the types' natural alignment.
  out.name_offsets_ = reinterpret_cast<const uint64_t*>(name_off->data());
  out.entry_offsets_ = reinterpret_cast<const uint64_t*>(entry_off->data());
  out.raw_entries_ =
      reinterpret_cast<const RawPdnsEntry*>(entry_bytes->data());

  // O(1) boundary checks always. The interior is covered by the payload
  // CRCs, and walking it would defeat the O(1) open, so only kFull checks
  // it; kFast trusts the CRC-protected atomic-publish protocol.
  if (out.name_offsets_[0] != 0 ||
      out.name_offsets_[name_count] != keys->size() ||
      out.entry_offsets_[0] != 0 ||
      out.entry_offsets_[name_count] != entry_count) {
    return Corrupt(origin, "fencepost boundaries inconsistent");
  }
  if (validation == ckpt::SnapshotValidation::kFull) {
    if (!Monotonic(out.name_offsets_, name_count)) {
      return Corrupt(origin, "name fenceposts out of order");
    }
    if (!Monotonic(out.entry_offsets_, name_count)) {
      return Corrupt(origin, "entry fenceposts out of order");
    }
    for (size_t i = 0; i < out.name_count_; ++i) {
      const std::string_view key = out.name_key(i);
      if (!dns::Name::FromCanonicalKey(key).ok()) {
        return Corrupt(origin, "bad name key " + std::to_string(i));
      }
      if (i > 0 && !(out.name_key(i - 1) < key)) {
        return Corrupt(origin, "name keys not strictly increasing");
      }
    }
    for (size_t e = 0; e < out.entry_count_; ++e) {
      const RawPdnsEntry& raw = out.raw_entries_[e];
      if (!KnownRRType(raw.type)) {
        return Corrupt(origin, "bad rrtype in entry " + std::to_string(e));
      }
      if (raw.rdata_off > rdata->size() ||
          raw.rdata_len > rdata->size() - raw.rdata_off) {
        return Corrupt(origin, "rdata of entry " + std::to_string(e) +
                                   " outside the rdata section");
      }
    }
  }
  out.view_ = std::move(view);
  return out;
}

dns::Name PdnsSnapshot::name(size_t i) const {
  auto parsed = dns::Name::FromCanonicalKey(name_key(i));
  GOVDNS_CHECK(parsed.ok());
  return *std::move(parsed);
}

PdnsEntryView PdnsSnapshot::EntryRange::Iterator::operator*() const {
  PdnsEntryView v;
  v.type = static_cast<dns::RRType>(raw_->type);
  v.rdata = rdata_.substr(raw_->rdata_off, raw_->rdata_len);
  v.seen = {raw_->seen_first, raw_->seen_last};
  v.count = raw_->count;
  return v;
}

std::pair<size_t, size_t> PdnsSnapshot::WildcardNameRange(
    const dns::Name& suffix) const {
  if (suffix.IsRoot()) return {0, name_count_};
  const std::string_view key = suffix.CanonicalKey();
  // lower_bound over the key array: first name key >= suffix key.
  size_t lo = 0, hi = name_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (name_key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // A name is in the subtree iff its key is `key` or `key` + '\0' + more
  // (the '\0' pins the label boundary). Within [lo, end) the subtree is a
  // prefix, so its end is a partition point.
  auto in_subtree = [&](size_t i) {
    const std::string_view k = name_key(i);
    return k.size() >= key.size() && k.substr(0, key.size()) == key &&
           (k.size() == key.size() || k[key.size()] == '\0');
  };
  size_t begin = lo;
  hi = name_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (in_subtree(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {begin, lo};
}

std::vector<PdnsEntry> PdnsSnapshot::WildcardSearch(const dns::Name& suffix,
                                                    const Query& query) const {
  std::vector<PdnsEntry> out;
  const auto [lo, hi] = WildcardNameRange(suffix);
  for (size_t n = lo; n < hi; ++n) {
    for (const PdnsEntryView v : entries(n)) {
      if (!EntryMatches(v, query)) continue;
      out.push_back(
          PdnsEntry{name(n), v.type, std::string(v.rdata), v.seen, v.count});
    }
  }
  return out;
}

util::Status WritePdnsSnapshotFile(const PdnsSnapshot& snap,
                                   uint64_t fingerprint,
                                   const std::string& dir,
                                   const std::string& path) {
  ckpt::SnapshotFileWriter file(kPdnsSnapshotFormatVersion, fingerprint);
  for (const uint32_t id : kSections) {
    auto bytes = snap.view_.Section(id);
    if (!bytes.ok()) return bytes.status();
    file.AddSection(id, std::string(*bytes));
  }
  return file.WriteTo(dir, path);
}

// ---- builder ---------------------------------------------------------------

PdnsSnapshotBuilder::PdnsSnapshotBuilder(int merge_gap_days)
    : merge_gap_days_(merge_gap_days) {
  GOVDNS_CHECK(merge_gap_days >= 0);
}

void PdnsSnapshotBuilder::ObserveInterval(const dns::Name& rrname,
                                          dns::RRType type,
                                          const std::string& rdata,
                                          util::DayInterval interval,
                                          uint64_t count_per_day) {
  GOVDNS_CHECK(interval.first <= interval.last);
  GOVDNS_CHECK(observed_ < UINT32_MAX);
  if (owners_.empty() || owners_.back() != rrname) owners_.push_back(rrname);
  auto [rd, new_rdata] = rdata_ids_.try_emplace(
      rdata, static_cast<uint32_t>(rdatas_.size()));
  if (new_rdata) rdatas_.push_back(rdata);
  sightings_.push_back(Sighting{
      static_cast<uint32_t>(owners_.size() - 1), rd->second, observed_++,
      type, interval,
      count_per_day * static_cast<uint64_t>(interval.LengthDays())});
}

PdnsSnapshot PdnsSnapshotBuilder::Build() {
  // Distinct owner names in canonical order (memcmp order of the keys);
  // name_of[run] is its index.
  std::vector<std::pair<std::string_view, uint32_t>> by_name;
  by_name.reserve(owners_.size());
  for (uint32_t run = 0; run < owners_.size(); ++run) {
    by_name.emplace_back(owners_[run].CanonicalKey(), run);
  }
  std::sort(by_name.begin(), by_name.end());
  std::vector<dns::Name> names;
  std::vector<uint32_t> name_of(owners_.size());
  for (const auto& [key, run] : by_name) {
    if (names.empty() || names.back().CanonicalKey() != key) {
      names.push_back(owners_[run]);
    }
    name_of[run] = static_cast<uint32_t>(names.size() - 1);
  }

  // Group the sightings by name (a counting sort); from here on `owner` is
  // a name index and first[n] the name's first sighting.
  std::vector<size_t> first(names.size() + 1, 0);
  for (const Sighting& s : sightings_) ++first[name_of[s.owner] + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<Sighting> grouped(sightings_.size());
  std::vector<size_t> fill(first.begin(), first.end() - 1);
  for (Sighting s : sightings_) {
    s.owner = name_of[s.owner];
    grouped[fill[s.owner]++] = s;
  }

  // Per name, one sort brings each key's sightings together in first-day
  // order; a sweep coalesces runs whose silences stay within the merge gap;
  // and the entries are ordered by the earliest call folded into each. The
  // result is the fixed point any arrival order converges to (pdns_test
  // checks it against incremental coalescing). Entries are compacted in
  // place, and first[] becomes the entry fenceposts.
  size_t merged = 0;
  for (size_t n = 0; n < names.size(); ++n) {
    const auto run_begin = grouped.begin() + static_cast<ptrdiff_t>(first[n]);
    const auto run_end = grouped.begin() + static_cast<ptrdiff_t>(first[n + 1]);
    std::sort(run_begin, run_end, [](const Sighting& a, const Sighting& b) {
      return std::tuple(a.type, a.rdata, a.seen.first) <
             std::tuple(b.type, b.rdata, b.seen.first);
    });
    first[n] = merged;
    for (auto it = run_begin; it != run_end; ++it) {
      if (merged > first[n]) {
        Sighting& last = grouped[merged - 1];
        if (last.type == it->type && last.rdata == it->rdata &&
            it->seen.first <= last.seen.last + merge_gap_days_ + 1) {
          last.seen.last = std::max(last.seen.last, it->seen.last);
          last.count += it->count;
          last.order = std::min(last.order, it->order);
          continue;
        }
      }
      grouped[merged++] = *it;
    }
    std::sort(grouped.begin() + static_cast<ptrdiff_t>(first[n]),
              grouped.begin() + static_cast<ptrdiff_t>(merged),
              [](const Sighting& a, const Sighting& b) {
                return a.order < b.order;
              });
  }
  first[names.size()] = merged;
  grouped.resize(merged);
  // The coalesced entries are themselves sightings, so the builder stays
  // usable: later calls add to them and Build() again gives the same
  // result as one Build() over every call.
  owners_ = std::move(names);
  sightings_ = std::move(grouped);

  // Lay out the sections. rdata strings repeat heavily (one NS host serves
  // many zones), so the blob stores each distinct string once, first
  // appearance first.
  std::string keys, name_offsets, entry_offsets, entries, rdata_blob;
  std::vector<uint64_t> rdata_at(rdatas_.size(), UINT64_MAX);
  entries.reserve(sightings_.size() * sizeof(RawPdnsEntry));
  AppendRaw(name_offsets, uint64_t{0});
  for (size_t n = 0; n < owners_.size(); ++n) {
    keys += owners_[n].CanonicalKey();
    AppendRaw(name_offsets, uint64_t{keys.size()});
  }
  for (const size_t f : first) AppendRaw(entry_offsets, uint64_t{f});
  for (const Sighting& s : sightings_) {
    const std::string& rdata = rdatas_[s.rdata];
    if (rdata_at[s.rdata] == UINT64_MAX) {
      rdata_at[s.rdata] = rdata_blob.size();
      rdata_blob += rdata;
    }
    RawPdnsEntry raw;
    raw.rdata_off = rdata_at[s.rdata];
    raw.rdata_len = static_cast<uint32_t>(rdata.size());
    raw.type = static_cast<uint32_t>(s.type);
    raw.seen_first = s.seen.first;
    raw.seen_last = s.seen.last;
    raw.count = s.count;
    AppendRaw(entries, raw);
  }

  ckpt::Writer meta;
  meta.Size(owners_.size());
  meta.Size(sightings_.size());
  ckpt::SnapshotFileWriter file(kPdnsSnapshotFormatVersion,
                                kInMemoryFingerprint);
  file.AddSection(kSecPdnsMeta, std::move(meta).Take());
  file.AddSection(kSecPdnsNameKeys, std::move(keys));
  file.AddSection(kSecPdnsNameOffsets, std::move(name_offsets));
  file.AddSection(kSecPdnsEntryOffsets, std::move(entry_offsets));
  file.AddSection(kSecPdnsEntries, std::move(entries));
  file.AddSection(kSecPdnsRdata, std::move(rdata_blob));
  auto view = ckpt::SnapshotFileView::FromFile(
      util::MappedFile::FromBuffer(file.Assemble()), "(in memory)",
      kPdnsSnapshotFormatVersion, kInMemoryFingerprint,
      ckpt::SnapshotValidation::kFast);
  GOVDNS_CHECK(view.ok());
  auto snap = PdnsSnapshot::FromView(*std::move(view), "(in memory)",
                                     ckpt::SnapshotValidation::kFast);
  GOVDNS_CHECK(snap.ok());
  return *std::move(snap);
}

}  // namespace govdns::pdns
