// DNS zone data: the authoritative record sets for one zone, plus lookup
// helpers used by the authoritative-server logic.
//
// A zone is a sealed image: one flat vector of records. Add() appends to it
// while the zone is built; Seal() then stable-sorts it by (owner canonical
// key, type) and indexes where each RRset starts. The sort is stable so
// every RRset keeps its insertion order, which the wire bytes of an answer
// depend on. Reads need a sealed zone and Add() needs an unsealed one;
// either mistake fails a GOVDNS_CHECK.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "util/status.h"

namespace govdns::zone {

// A zone is the set of records from its origin (apex) down to — but not
// including — the apexes of delegated child zones. NS records at a name
// other than the origin mark a delegation cut.
class Zone {
 public:
  explicit Zone(dns::Name origin);

  const dns::Name& origin() const { return origin_; }

  // Appends a record. The owner name must be at or below the origin, and
  // the zone must not be sealed.
  void Add(dns::ResourceRecord rr);

  // Sorts the records into canonical order and builds the RRset index.
  // Called once, after the last Add().
  void Seal();

  // All records of `type` at `name`, in insertion order; empty if none.
  // The view lives as long as the zone.
  std::span<const dns::ResourceRecord> Find(const dns::Name& name,
                                            dns::RRType type) const;

  // True if any record exists at `name` (of any type), or if `name` is an
  // empty non-terminal (an existing name's ancestor).
  bool NameExists(const dns::Name& name) const;

  // The closest delegation cut at or above `name`, strictly below the
  // origin: the NS RRset whose owner is the longest suffix of `name` that
  // is a proper subdomain of the origin and carries NS records.
  // Returns nullopt when `name` is inside this zone's authoritative data.
  std::optional<dns::Name> FindDelegation(const dns::Name& name) const;

  // The SOA record at the apex, if present.
  std::optional<dns::ResourceRecord> Soa() const;

  // All NS names at a given owner (convenience over Find).
  std::vector<dns::Name> NsTargets(const dns::Name& owner) const;

  // Iterates every record in canonical (owner, type) order, each RRset in
  // insertion order.
  void ForEachRecord(
      const std::function<void(const dns::ResourceRecord&)>& fn) const;

  size_t record_count() const;

 private:
  // Index into rrset_begin_ of the first RRset not ordered before
  // (name, type); rrset_begin_.size() - 1 when there is none.
  size_t LowerBound(const dns::Name& name, dns::RRType type) const;

  dns::Name origin_;
  // Every record; once sealed, in (owner canonical key, type, insertion)
  // order.
  std::vector<dns::ResourceRecord> records_;
  // Once sealed: where each RRset starts in records_, then records_.size().
  std::vector<uint32_t> rrset_begin_;
  bool sealed_ = false;
};

}  // namespace govdns::zone
