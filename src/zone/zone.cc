#include "zone/zone.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string_view>

namespace govdns::zone {

Zone::Zone(dns::Name origin) : origin_(std::move(origin)) {}

void Zone::Add(dns::ResourceRecord rr) {
  GOVDNS_CHECK(!sealed_);
  GOVDNS_CHECK(rr.name.IsSubdomainOf(origin_));
  records_.push_back(std::move(rr));
}

void Zone::Seal() {
  GOVDNS_CHECK(!sealed_);
  GOVDNS_CHECK(records_.size() < std::numeric_limits<uint32_t>::max());
  sealed_ = true;
  // Sort small keys rather than the records themselves. Ties on (owner,
  // type) fall back to the insertion index, which makes the order that of
  // a stable sort: each RRset keeps the order its records were added in.
  struct Key {
    std::string_view owner;
    dns::RRType type;
    uint32_t index;
  };
  std::vector<Key> keys;
  keys.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    keys.push_back(Key{records_[i].name.CanonicalKey(), records_[i].type(),
                       static_cast<uint32_t>(i)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (const int c = a.owner.compare(b.owner); c != 0) return c < 0;
    if (a.type != b.type) return a.type < b.type;
    return a.index < b.index;
  });
  // The keys view the records' names, so find the RRset boundaries before
  // the records move.
  rrset_begin_.clear();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i].owner != keys[i - 1].owner ||
        keys[i].type != keys[i - 1].type) {
      rrset_begin_.push_back(static_cast<uint32_t>(i));
    }
  }
  rrset_begin_.push_back(static_cast<uint32_t>(keys.size()));
  std::vector<dns::ResourceRecord> sorted;
  sorted.reserve(records_.size());
  for (const Key& key : keys) sorted.push_back(std::move(records_[key.index]));
  records_ = std::move(sorted);
}

size_t Zone::LowerBound(const dns::Name& name, dns::RRType type) const {
  GOVDNS_CHECK(sealed_);
  const std::string_view key = name.CanonicalKey();
  const auto rrsets_end = rrset_begin_.end() - 1;  // past the sentinel
  const auto it = std::partition_point(
      rrset_begin_.begin(), rrsets_end, [&](uint32_t begin) {
        const dns::ResourceRecord& rr = records_[begin];
        const int c = rr.name.CanonicalKey().compare(key);
        return c < 0 || (c == 0 && rr.type() < type);
      });
  return static_cast<size_t>(it - rrset_begin_.begin());
}

std::span<const dns::ResourceRecord> Zone::Find(const dns::Name& name,
                                                dns::RRType type) const {
  const size_t i = LowerBound(name, type);
  if (i + 1 == rrset_begin_.size()) return {};
  const dns::ResourceRecord& first = records_[rrset_begin_[i]];
  if (!(first.name == name) || first.type() != type) return {};
  return std::span<const dns::ResourceRecord>(records_).subspan(
      rrset_begin_[i], rrset_begin_[i + 1] - rrset_begin_[i]);
}

bool Zone::NameExists(const dns::Name& name) const {
  // RRType{} orders before every type, so this is the first RRset whose
  // owner is not ordered before `name`. Owners in canonical order place a
  // name's descendants right after it, so `name` exists — as an owner or as
  // an empty non-terminal — exactly when that owner is at or below it.
  const size_t i = LowerBound(name, dns::RRType{});
  if (i + 1 == rrset_begin_.size()) return false;
  return records_[rrset_begin_[i]].name.IsSubdomainOf(name);
}

std::optional<dns::Name> Zone::FindDelegation(const dns::Name& name) const {
  GOVDNS_CHECK(sealed_);
  if (!name.IsSubdomainOf(origin_)) return std::nullopt;
  // Walk cuts from the origin downward: check each ancestor of `name` that
  // is strictly below the origin, shortest first, so the topmost cut wins.
  const size_t origin_labels = origin_.LabelCount();
  for (size_t count = origin_labels + 1; count <= name.LabelCount(); ++count) {
    dns::Name candidate = name.Suffix(count);
    if (!Find(candidate, dns::RRType::kNS).empty()) return candidate;
  }
  return std::nullopt;
}

std::optional<dns::ResourceRecord> Zone::Soa() const {
  auto soas = Find(origin_, dns::RRType::kSOA);
  if (soas.empty()) return std::nullopt;
  return soas.front();
}

std::vector<dns::Name> Zone::NsTargets(const dns::Name& owner) const {
  std::vector<dns::Name> out;
  for (const auto& rr : Find(owner, dns::RRType::kNS)) {
    out.push_back(std::get<dns::NsRdata>(rr.rdata).nameserver);
  }
  return out;
}

void Zone::ForEachRecord(
    const std::function<void(const dns::ResourceRecord&)>& fn) const {
  GOVDNS_CHECK(sealed_);
  for (const auto& rr : records_) fn(rr);
}

size_t Zone::record_count() const {
  GOVDNS_CHECK(sealed_);
  return records_.size();
}

}  // namespace govdns::zone
