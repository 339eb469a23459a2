#include "zone/zonefile.h"

#include <cctype>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace govdns::zone {

namespace {

std::string ErrorAt(int line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
}

// A token stream over master-file text that understands ';' comments and
// '(' ... ')' line continuation, and reports logical-line boundaries.
class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  struct Line {
    std::vector<std::string> tokens;
    bool owner_field_blank = false;  // line started with whitespace
    int line_number = 0;
  };

  // Next logical line with at least one token; nullopt at end of input or
  // at the first malformed line, which error() then describes.
  std::optional<Line> NextLine() {
    while (pos_ < text_.size()) {
      Line line;
      line.line_number = line_number_;
      line.owner_field_blank =
          pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t');
      int depth = 0;
      int open_line = 0;  // where the outermost '(' was opened
      bool saw_token = false;
      while (pos_ < text_.size()) {
        char c = text_[pos_];
        if (c == ';') {
          SkipToEol();
          if (depth == 0) break;
          continue;
        }
        if (c == '\n') {
          ++pos_;
          ++line_number_;
          if (depth == 0) break;
          continue;
        }
        if (c == ' ' || c == '\t' || c == '\r') {
          ++pos_;
          continue;
        }
        if (c == '(') {
          if (depth++ == 0) open_line = line_number_;
          ++pos_;
          continue;
        }
        if (c == ')') {
          if (depth == 0) return Fail(ErrorAt(line_number_, "')' without '('"));
          --depth;
          ++pos_;
          continue;
        }
        if (c == '"') {
          // Quoted character string (TXT); it must close on its own line.
          ++pos_;
          std::string token;
          while (pos_ < text_.size() && text_[pos_] != '"' &&
                 text_[pos_] != '\n') {
            token += text_[pos_++];
          }
          if (pos_ == text_.size() || text_[pos_] == '\n') {
            return Fail(ErrorAt(line_number_, "unterminated quoted string"));
          }
          ++pos_;  // closing quote
          line.tokens.push_back("\"" + token);
          saw_token = true;
          continue;
        }
        std::string token;
        while (pos_ < text_.size() && !std::isspace(
                   static_cast<unsigned char>(text_[pos_])) &&
               text_[pos_] != ';' && text_[pos_] != '(' && text_[pos_] != ')') {
          token += text_[pos_++];
        }
        line.tokens.push_back(std::move(token));
        saw_token = true;
      }
      if (depth > 0) return Fail(ErrorAt(open_line, "'(' never closed"));
      if (saw_token) return line;
      // Blank/comment-only line: keep scanning.
    }
    return std::nullopt;
  }

  // Empty unless NextLine() stopped at malformed input.
  const std::string& error() const { return error_; }

 private:
  void SkipToEol() {
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
  }

  std::nullopt_t Fail(std::string error) {
    error_ = std::move(error);
    pos_ = text_.size();
    return std::nullopt;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_number_ = 1;
  std::string error_;
};

util::StatusOr<dns::Name> ResolveName(const std::string& token,
                                      const dns::Name& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') {
    return dns::Name::Parse(token);
  }
  // Relative: append the origin.
  auto relative = dns::Name::Parse(token);
  if (!relative.ok() || origin.IsRoot()) return relative;
  // Keys hold labels rightmost-first: the origin's key comes first.
  std::string key(origin.CanonicalKey());
  key += '\0';
  key += relative->CanonicalKey();
  return dns::Name::FromCanonicalKey(key);
}

util::StatusOr<uint32_t> ParseU32(const std::string& token) {
  uint64_t value = 0;
  if (token.empty()) return util::ParseError("empty integer");
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return util::ParseError("not a number: " + token);
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 0xFFFFFFFFULL) return util::ParseError("overflow: " + token);
  }
  return static_cast<uint32_t>(value);
}

bool IsAllDigits(const std::string& token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

util::StatusOr<Zone> ParseZoneFile(const std::string& text,
                                   const dns::Name& origin,
                                   ZoneFileOptions options) {
  Tokenizer tokenizer(text);
  dns::Name current_origin = origin;
  uint32_t default_ttl = options.default_ttl;
  std::optional<dns::Name> previous_owner;

  // Records are collected first: the zone origin may be overridden by a
  // leading $ORIGIN, and Zone is keyed on it.
  std::vector<dns::ResourceRecord> records;
  std::optional<dns::Name> zone_origin;

  while (auto line = tokenizer.NextLine()) {
    auto& tokens = line->tokens;
    const int ln = line->line_number;

    // Directives.
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) {
        return util::ParseError(ErrorAt(ln, "$ORIGIN needs one argument"));
      }
      auto name = ResolveName(tokens[1], current_origin);
      if (!name.ok()) return util::ParseError(ErrorAt(ln, name.status().message()));
      current_origin = *name;
      if (!zone_origin) zone_origin = current_origin;
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2) {
        return util::ParseError(ErrorAt(ln, "$TTL needs one argument"));
      }
      auto ttl = ParseU32(tokens[1]);
      if (!ttl.ok()) return util::ParseError(ErrorAt(ln, ttl.status().message()));
      default_ttl = *ttl;
      continue;
    }
    if (tokens[0].size() > 1 && tokens[0][0] == '$') {
      return util::ParseError(ErrorAt(ln, "unsupported directive " + tokens[0]));
    }
    if (!zone_origin) zone_origin = current_origin;

    // Owner.
    size_t next = 0;
    dns::Name owner = current_origin;
    if (line->owner_field_blank) {
      if (!previous_owner) {
        return util::ParseError(ErrorAt(ln, "no previous owner to repeat"));
      }
      owner = *previous_owner;
    } else {
      auto name = ResolveName(tokens[0], current_origin);
      if (!name.ok()) return util::ParseError(ErrorAt(ln, name.status().message()));
      owner = *name;
      next = 1;
    }
    previous_owner = owner;

    // Optional TTL and class, in either order.
    uint32_t ttl = default_ttl;
    for (int pass = 0; pass < 2 && next < tokens.size(); ++pass) {
      if (IsAllDigits(tokens[next])) {
        auto parsed = ParseU32(tokens[next]);
        if (!parsed.ok()) return util::ParseError(ErrorAt(ln, "bad TTL"));
        ttl = *parsed;
        ++next;
      } else if (util::EqualsIgnoreCase(tokens[next], "IN")) {
        ++next;
      }
    }
    if (next >= tokens.size()) {
      return util::ParseError(ErrorAt(ln, "missing record type"));
    }

    std::string type_token = tokens[next];
    for (char& c : type_token) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    auto type = dns::RRTypeFromName(type_token);
    if (!type.ok()) {
      return util::ParseError(ErrorAt(ln, "unknown type " + tokens[next]));
    }
    ++next;
    auto remaining = [&]() -> size_t { return tokens.size() - next; };

    dns::ResourceRecord rr;
    rr.name = owner;
    rr.ttl = ttl;
    switch (*type) {
      case dns::RRType::kA: {
        if (remaining() != 1) {
          return util::ParseError(ErrorAt(ln, "A needs one address"));
        }
        auto addr = geo::IPv4::Parse(tokens[next]);
        if (!addr.ok()) return util::ParseError(ErrorAt(ln, "bad address"));
        rr.rdata = dns::ARdata{*addr};
        break;
      }
      case dns::RRType::kNS:
      case dns::RRType::kCNAME:
      case dns::RRType::kPTR: {
        if (remaining() != 1) {
          return util::ParseError(ErrorAt(ln, "expected one name"));
        }
        auto target = ResolveName(tokens[next], current_origin);
        if (!target.ok()) return util::ParseError(ErrorAt(ln, "bad name"));
        if (*type == dns::RRType::kNS) {
          rr.rdata = dns::NsRdata{*target};
        } else if (*type == dns::RRType::kCNAME) {
          rr.rdata = dns::CnameRdata{*target};
        } else {
          rr.rdata = dns::PtrRdata{*target};
        }
        break;
      }
      case dns::RRType::kMX: {
        if (remaining() != 2) {
          return util::ParseError(ErrorAt(ln, "MX needs preference + name"));
        }
        auto pref = ParseU32(tokens[next]);
        if (!pref.ok() || *pref > 0xFFFF) {
          return util::ParseError(ErrorAt(ln, "bad MX preference"));
        }
        auto target = ResolveName(tokens[next + 1], current_origin);
        if (!target.ok()) return util::ParseError(ErrorAt(ln, "bad MX target"));
        rr.rdata = dns::MxRdata{static_cast<uint16_t>(*pref), *target};
        break;
      }
      case dns::RRType::kSOA: {
        if (remaining() != 7) {
          return util::ParseError(
              ErrorAt(ln, "SOA needs mname rname and 5 numbers"));
        }
        dns::SoaRdata soa;
        auto mname = ResolveName(tokens[next], current_origin);
        auto rname = ResolveName(tokens[next + 1], current_origin);
        if (!mname.ok() || !rname.ok()) {
          return util::ParseError(ErrorAt(ln, "bad SOA names"));
        }
        soa.mname = *mname;
        soa.rname = *rname;
        uint32_t* fields[] = {&soa.serial, &soa.refresh, &soa.retry,
                              &soa.expire, &soa.minimum};
        for (int i = 0; i < 5; ++i) {
          auto value = ParseU32(tokens[next + 2 + i]);
          if (!value.ok()) {
            return util::ParseError(ErrorAt(ln, "bad SOA number"));
          }
          *fields[i] = *value;
        }
        rr.rdata = soa;
        break;
      }
      case dns::RRType::kTXT: {
        if (remaining() < 1) {
          return util::ParseError(ErrorAt(ln, "TXT needs strings"));
        }
        dns::TxtRdata txt;
        for (; next < tokens.size(); ++next) {
          std::string value = tokens[next];
          if (!value.empty() && value[0] == '"') value = value.substr(1);
          if (value.size() > 255) {
            return util::ParseError(ErrorAt(ln, "TXT string too long"));
          }
          txt.strings.push_back(std::move(value));
        }
        rr.rdata = std::move(txt);
        rr.name = owner;
        rr.ttl = ttl;
        records.push_back(std::move(rr));
        continue;  // `next` already consumed
      }
      case dns::RRType::kAAAA:
        return util::ParseError(ErrorAt(ln, "AAAA text format unsupported"));
    }
    records.push_back(std::move(rr));
  }
  if (!tokenizer.error().empty()) return util::ParseError(tokenizer.error());

  if (!zone_origin) zone_origin = origin;
  Zone zone(*zone_origin);
  for (auto& rr : records) {
    if (!rr.name.IsSubdomainOf(zone.origin())) {
      return util::ParseError("record " + rr.name.ToString() +
                              " outside zone " + zone.origin().ToString());
    }
    zone.Add(std::move(rr));
  }
  zone.Seal();
  return zone;
}

namespace {

// Owner written relative to the origin where possible.
std::string RelativeOwner(const dns::Name& name, const dns::Name& origin) {
  if (name == origin) return "@";
  if (name.IsProperSubdomainOf(origin)) {
    std::string relative;
    size_t keep = name.LabelCount() - origin.LabelCount();
    for (const std::string_view label : name.labels()) {
      if (keep-- == 0) break;
      if (!relative.empty()) relative += '.';
      relative += label;
    }
    return relative;
  }
  return name.ToString() + ".";
}

std::string RdataText(const dns::ResourceRecord& rr, const dns::Name& origin) {
  (void)origin;
  switch (rr.type()) {
    case dns::RRType::kTXT: {
      const auto& txt = std::get<dns::TxtRdata>(rr.rdata);
      std::string out;
      for (const auto& s : txt.strings) {
        if (!out.empty()) out += ' ';
        out += '"' + s + '"';
      }
      return out;
    }
    case dns::RRType::kNS:
      return std::get<dns::NsRdata>(rr.rdata).nameserver.ToString() + ".";
    case dns::RRType::kCNAME:
      return std::get<dns::CnameRdata>(rr.rdata).target.ToString() + ".";
    case dns::RRType::kPTR:
      return std::get<dns::PtrRdata>(rr.rdata).target.ToString() + ".";
    case dns::RRType::kMX: {
      const auto& mx = std::get<dns::MxRdata>(rr.rdata);
      return std::to_string(mx.preference) + " " + mx.exchange.ToString() + ".";
    }
    case dns::RRType::kSOA: {
      const auto& soa = std::get<dns::SoaRdata>(rr.rdata);
      std::ostringstream os;
      os << soa.mname.ToString() << ". " << soa.rname.ToString() << ". ( "
         << soa.serial << " " << soa.refresh << " " << soa.retry << " "
         << soa.expire << " " << soa.minimum << " )";
      return os.str();
    }
    default:
      return dns::RdataToString(rr.rdata);
  }
}

}  // namespace

std::string WriteZoneFile(const Zone& zone) {
  std::ostringstream os;
  os << "$ORIGIN " << zone.origin().ToString() << ".\n";
  os << "$TTL 3600\n";
  // SOA first, then everything else in iteration (canonical) order.
  if (auto soa = zone.Soa()) {
    os << RelativeOwner(soa->name, zone.origin()) << " " << soa->ttl
       << " IN SOA " << RdataText(*soa, zone.origin()) << "\n";
  }
  zone.ForEachRecord([&](const dns::ResourceRecord& rr) {
    if (rr.type() == dns::RRType::kSOA) return;
    os << RelativeOwner(rr.name, zone.origin()) << " " << rr.ttl << " IN "
       << dns::RRTypeName(rr.type()) << " " << RdataText(rr, zone.origin())
       << "\n";
  });
  return os.str();
}

}  // namespace govdns::zone
