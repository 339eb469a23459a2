// RFC 1035 §5 master-file ("zone file") parsing and serialization.
//
// Lets zones be authored, inspected, and round-tripped as text — the format
// every DNS operator works in. Supported subset: $ORIGIN and $TTL
// directives, relative and absolute owner names, '@' for the origin,
// blank-owner continuation (repeat the previous owner), ';' comments,
// optional per-record TTLs and the IN class, and the record types the rest
// of the library models (A, AAAA, NS, CNAME, PTR, MX, SOA, TXT).
// Multi-line parenthesized SOA records are supported.
#pragma once

#include <iosfwd>
#include <string>

#include "util/status.h"
#include "zone/zone.h"

namespace govdns::zone {

struct ZoneFileOptions {
  // Default TTL when neither $TTL nor a per-record TTL is present.
  uint32_t default_ttl = 3600;
};

// Parses master-file text into a sealed Zone. `origin` seeds $ORIGIN (a
// leading $ORIGIN directive overrides it). Returns a parse error naming the
// first offending line; a quoted string left open at the end of its line, a
// '(' still open at the end of input and a ')' with no open '(' are errors.
util::StatusOr<Zone> ParseZoneFile(const std::string& text,
                                   const dns::Name& origin,
                                   ZoneFileOptions options = ZoneFileOptions());

// Serializes a zone in master-file format: $ORIGIN/$TTL header, SOA first,
// then the remaining records in canonical owner order, with owners written
// relative to the origin.
std::string WriteZoneFile(const Zone& zone);

}  // namespace govdns::zone
