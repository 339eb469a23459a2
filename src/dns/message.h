// DNS messages (RFC 1035 §4): header, question, and the four sections.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "dns/wire.h"
#include "util/status.h"

namespace govdns::dns {

enum class Opcode : uint8_t {
  kQuery = 0,
};

enum class Rcode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

std::string_view RcodeName(Rcode rcode);

struct Header {
  uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  Rcode rcode = Rcode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

struct Question {
  Name name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;

  friend bool operator==(const Question&, const Question&) = default;
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  // Serializes to RFC 1035 wire format with name compression.
  std::vector<uint8_t> Encode() const;

  static util::StatusOr<Message> Decode(const std::vector<uint8_t>& wire);
  static util::StatusOr<Message> Decode(const uint8_t* data, size_t len);

  // True when the response is a referral: not authoritative for the
  // question, no answers, but NS records in the authority section.
  bool IsReferral() const;

  std::string ToString() const;

  friend bool operator==(const Message&, const Message&) = default;
};

// Builds a standard query for (name, type).
Message MakeQuery(uint16_t id, const Name& name, RRType type);

// The header of a response to a query with header `query`: its id and RD
// bit, QR set, `rcode`, and AA, TC and RA clear.
Header ResponseHeader(const Header& query, Rcode rcode);

// Builds a response skeleton echoing the query's id and question.
Message MakeResponse(const Message& query, Rcode rcode);

// Writes a message in wire format without building a Message: the header
// and the questions first, then the records of each section in section
// order, and Finish() patches the section counts into the header.
// Message::Encode writes through it, and so does an authoritative server,
// straight from its zone's records.
class MessageWriter {
 public:
  enum Section { kAnswer, kAuthority, kAdditional };

  MessageWriter(const Header& header, const std::vector<Question>& questions);

  // Appends records to `section`, which may not precede the last one added.
  void Add(Section section, std::span<const ResourceRecord> rrs);
  void Add(Section section, const ResourceRecord& rr) {
    Add(section, std::span<const ResourceRecord>(&rr, 1));
  }

  // The finished message's bytes.
  std::vector<uint8_t> Finish();

 private:
  WireWriter w_;
  Section section_ = kAnswer;
  size_t counts_[3] = {};
};

}  // namespace govdns::dns
