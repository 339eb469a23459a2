#include "pdns/snapshot_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "ckpt/serial.h"
#include "dns/rr.h"

namespace govdns::pdns {

namespace {

util::Status Corrupt(const std::string& path, const std::string& what) {
  return util::DataLossError("pdns snapshot " + path + ": " + what);
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

void AppendRaw(std::string& out, const RawPdnsEntry& raw) {
  out.append(reinterpret_cast<const char*>(&raw), sizeof raw);
}

void AppendU64s(std::string& out, const std::vector<uint64_t>& values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(uint64_t));
}

}  // namespace

util::Status WritePdnsSnapshotFile(const PdnsSnapshot& snap,
                                   uint64_t fingerprint,
                                   const std::string& dir,
                                   const std::string& path) {
  if (std::endian::native != std::endian::little) {
    return util::InternalError(
        "snapshot files are little-endian; writing on a big-endian host is "
        "not supported");
  }
  const size_t names = snap.name_count();

  ckpt::Writer meta;
  meta.Size(names);
  meta.Size(snap.entry_count());

  std::string keys;
  std::vector<uint64_t> name_offsets;
  name_offsets.reserve(names + 1);
  name_offsets.push_back(0);
  for (size_t i = 0; i < names; ++i) {
    keys += snap.name(i).CanonicalKey();
    name_offsets.push_back(keys.size());
  }

  // rdata strings repeat heavily (one NS host serves many zones), so the
  // blob stores each distinct string once, first appearance first —
  // deterministic, and typically shrinks the file severalfold.
  std::string rdata_blob;
  std::unordered_map<std::string_view, uint64_t> rdata_at;
  std::string entry_bytes;
  std::vector<uint64_t> entry_offsets;
  entry_offsets.reserve(names + 1);
  entry_offsets.push_back(0);
  entry_bytes.reserve(snap.entry_count() * sizeof(RawPdnsEntry));
  uint64_t entry_total = 0;
  for (size_t i = 0; i < names; ++i) {
    for (const PdnsEntry& entry : snap.entries(i)) {
      RawPdnsEntry raw;
      auto [it, inserted] = rdata_at.emplace(entry.rdata, rdata_blob.size());
      if (inserted) rdata_blob += entry.rdata;
      raw.rdata_off = it->second;
      raw.rdata_len = static_cast<uint32_t>(entry.rdata.size());
      raw.type = static_cast<uint32_t>(entry.type);
      raw.seen_first = entry.seen.first;
      raw.seen_last = entry.seen.last;
      raw.count = entry.count;
      AppendRaw(entry_bytes, raw);
      ++entry_total;
    }
    entry_offsets.push_back(entry_total);
  }

  ckpt::SnapshotFileWriter file(kPdnsSnapshotFormatVersion, fingerprint);
  file.AddSection(kSecPdnsMeta, std::move(meta).Take());
  file.AddSection(kSecPdnsNameKeys, std::move(keys));
  std::string name_off_bytes, entry_off_bytes;
  AppendU64s(name_off_bytes, name_offsets);
  AppendU64s(entry_off_bytes, entry_offsets);
  file.AddSection(kSecPdnsNameOffsets, std::move(name_off_bytes));
  file.AddSection(kSecPdnsEntryOffsets, std::move(entry_off_bytes));
  file.AddSection(kSecPdnsEntries, std::move(entry_bytes));
  file.AddSection(kSecPdnsRdata, std::move(rdata_blob));
  return file.WriteTo(dir, path);
}

util::StatusOr<PdnsSnapshot> ReadPdnsSnapshotFileOwning(
    const std::string& path, uint64_t fingerprint) {
  // Parse-load decodes everything, so full payload validation is free
  // relative to the work already being done.
  auto view = ckpt::SnapshotFileView::Open(path, kPdnsSnapshotFormatVersion,
                                           fingerprint,
                                           ckpt::SnapshotValidation::kFull);
  if (!view.ok()) return view.status();
  auto mapped = MappedPdnsSnapshot::FromView(*std::move(view), path);
  if (!mapped.ok()) return mapped.status();

  const MappedPdnsSnapshot& m = *mapped;
  std::vector<dns::Name> names;
  names.reserve(m.name_count());
  std::vector<uint64_t> offsets;
  offsets.reserve(m.name_count() + 1);
  offsets.push_back(0);
  std::vector<PdnsEntry> entries;
  entries.reserve(m.entry_count());
  for (size_t i = 0; i < m.name_count(); ++i) {
    auto name = dns::Name::FromCanonicalKey(m.name_key(i));
    if (!name.ok()) {
      return Corrupt(path, "bad name key: " + name.status().ToString());
    }
    for (const PdnsEntryView v : m.entries(i)) {
      if (!KnownRRType(static_cast<uint32_t>(v.type))) {
        return Corrupt(path, "bad rrtype in entry");
      }
      entries.push_back(PdnsEntry{*name, v.type, std::string(v.rdata), v.seen,
                                  v.count});
    }
    names.push_back(*std::move(name));
    offsets.push_back(entries.size());
  }
  if (!std::is_sorted(names.begin(), names.end())) {
    return Corrupt(path, "name keys not in canonical order");
  }
  return PdnsSnapshot::FromSortedParts(std::move(names), std::move(offsets),
                                       std::move(entries));
}

util::StatusOr<MappedPdnsSnapshot> MappedPdnsSnapshot::Open(
    const std::string& path, uint64_t fingerprint,
    ckpt::SnapshotValidation validation) {
  auto view = ckpt::SnapshotFileView::Open(path, kPdnsSnapshotFormatVersion,
                                           fingerprint, validation);
  if (!view.ok()) return view.status();
  return FromView(*std::move(view), path);
}

util::StatusOr<MappedPdnsSnapshot> MappedPdnsSnapshot::OpenReadOnly(
    const std::string& path, uint64_t fingerprint,
    ckpt::SnapshotValidation validation) {
  auto view = ckpt::SnapshotFileView::OpenReadOnly(
      path, kPdnsSnapshotFormatVersion, fingerprint, validation);
  if (!view.ok()) return view.status();
  return FromView(*std::move(view), path);
}

util::StatusOr<MappedPdnsSnapshot> MappedPdnsSnapshot::FromView(
    ckpt::SnapshotFileView view, const std::string& path) {
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
    return Corrupt(path, "bad meta section");
  }
  const uint64_t fenceposts = name_count + 1;
  if (name_off->size() != fenceposts * sizeof(uint64_t) ||
      entry_off->size() != fenceposts * sizeof(uint64_t)) {
    return Corrupt(path, "fencepost section size mismatch");
  }
  if (entry_bytes->size() != entry_count * sizeof(RawPdnsEntry)) {
    return Corrupt(path, "entry section size mismatch");
  }

  MappedPdnsSnapshot out;
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

  // O(1) boundary checks always; anything interior is covered by the
  // payload CRCs (verified here only under kFull — an O(n) interior walk
  // would defeat the O(1) mapped-open guarantee, so the fast path trusts
  // the CRC-protected atomic-publish protocol).
  if (out.name_offsets_[0] != 0 ||
      out.name_offsets_[name_count] != keys->size() ||
      out.entry_offsets_[0] != 0 ||
      out.entry_offsets_[name_count] != entry_count) {
    return Corrupt(path, "fencepost boundaries inconsistent");
  }
  out.view_ = std::move(view);
  return out;
}

dns::Name MappedPdnsSnapshot::name(size_t i) const {
  auto parsed = dns::Name::FromCanonicalKey(name_key(i));
  GOVDNS_CHECK(parsed.ok());
  return *std::move(parsed);
}

PdnsEntryView MappedPdnsSnapshot::EntryRange::Iterator::operator*() const {
  PdnsEntryView v;
  v.type = static_cast<dns::RRType>(raw_->type);
  v.rdata = rdata_.substr(raw_->rdata_off, raw_->rdata_len);
  v.seen = {raw_->seen_first, raw_->seen_last};
  v.count = raw_->count;
  return v;
}

std::pair<size_t, size_t> MappedPdnsSnapshot::WildcardNameRange(
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

std::vector<PdnsEntry> MappedPdnsSnapshot::WildcardSearch(
    const dns::Name& suffix, const Query& query) const {
  std::vector<PdnsEntry> out;
  const auto [lo, hi] = WildcardNameRange(suffix);
  for (size_t n = lo; n < hi; ++n) {
    dns::Name owner;
    bool have_owner = false;
    for (const PdnsEntryView v : entries(n)) {
      if (!EntryMatches(v, query)) continue;
      if (!have_owner) {
        owner = name(n);
        have_owner = true;
      }
      out.push_back(
          PdnsEntry{owner, v.type, std::string(v.rdata), v.seen, v.count});
    }
  }
  return out;
}

}  // namespace govdns::pdns
