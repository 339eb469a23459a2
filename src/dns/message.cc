#include "dns/message.h"

#include <algorithm>
#include <sstream>

#include "dns/wire.h"

namespace govdns::dns {

std::string_view RcodeName(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError:
      return "NOERROR";
    case Rcode::kFormErr:
      return "FORMERR";
    case Rcode::kServFail:
      return "SERVFAIL";
    case Rcode::kNxDomain:
      return "NXDOMAIN";
    case Rcode::kNotImp:
      return "NOTIMP";
    case Rcode::kRefused:
      return "REFUSED";
  }
  return "RCODE?";
}

MessageWriter::MessageWriter(const Header& header,
                             const std::vector<Question>& questions) {
  w_.WriteU16(header.id);
  uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<uint16_t>(header.opcode) << 11;
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  flags |= static_cast<uint16_t>(header.rcode) & 0x0F;
  w_.WriteU16(flags);
  w_.WriteU16(static_cast<uint16_t>(questions.size()));
  // The three record counts, patched in by Finish().
  for (int s = 0; s < 3; ++s) w_.WriteU16(0);
  for (const Question& q : questions) {
    w_.WriteName(q.name);
    w_.WriteU16(static_cast<uint16_t>(q.type));
    w_.WriteU16(static_cast<uint16_t>(q.klass));
  }
}

void MessageWriter::Add(Section section, std::span<const ResourceRecord> rrs) {
  GOVDNS_CHECK(section >= section_);
  section_ = section;
  for (const ResourceRecord& rr : rrs) w_.WriteRecord(rr);
  counts_[section] += rrs.size();
}

std::vector<uint8_t> MessageWriter::Finish() {
  // The answer, authority and additional counts sit at octets 6, 8 and 10.
  for (int s = 0; s < 3; ++s) {
    GOVDNS_CHECK(counts_[s] <= 0xFFFF);
    w_.PatchU16(6 + 2 * s, static_cast<uint16_t>(counts_[s]));
  }
  return w_.TakeBuffer();
}

std::vector<uint8_t> Message::Encode() const {
  MessageWriter w(header, questions);
  w.Add(MessageWriter::kAnswer, answers);
  w.Add(MessageWriter::kAuthority, authority);
  w.Add(MessageWriter::kAdditional, additional);
  return w.Finish();
}

util::StatusOr<Message> Message::Decode(const std::vector<uint8_t>& wire) {
  return Decode(wire.data(), wire.size());
}

namespace {

// The fewest octets a question (root name, type, class) and a record (root
// name, type, class, TTL, RDLENGTH) can occupy. A section reserves its
// header count capped by the bytes left over these, so a crafted count
// cannot drive a large allocation (the guard of ckpt::Reader::Count).
constexpr size_t kMinQuestionOctets = 5;
constexpr size_t kMinRecordOctets = 11;

size_t ReserveCount(const WireReader& r, uint16_t count, size_t min_octets) {
  return std::min<size_t>(count, r.remaining() / min_octets);
}

bool ReadQuestion(WireReader& r, Question* q) {
  uint16_t type = 0;
  uint16_t klass = 0;
  if (!r.ReadName(&q->name) || !r.ReadU16(&type) || !r.ReadU16(&klass)) {
    return false;
  }
  if (klass != static_cast<uint16_t>(RRClass::kIN)) {
    return r.Fail("unsupported question class");
  }
  q->type = static_cast<RRType>(type);
  return true;
}

// Decodes the whole message into *msg, each question and record straight
// into its section; false with the reason latched in `r` on any failure.
bool DecodeInto(WireReader& r, Message* msg) {
  uint16_t flags = 0;
  if (!r.ReadU16(&msg->header.id) || !r.ReadU16(&flags)) return false;
  if (((flags >> 11) & 0x0F) != 0) return r.Fail("unsupported opcode");
  Header& h = msg->header;
  h.qr = flags & 0x8000;
  h.opcode = Opcode::kQuery;
  h.aa = flags & 0x0400;
  h.tc = flags & 0x0200;
  h.rd = flags & 0x0100;
  h.ra = flags & 0x0080;
  h.rcode = static_cast<Rcode>(flags & 0x0F);

  uint16_t counts[4] = {};
  for (uint16_t& count : counts) {
    if (!r.ReadU16(&count)) return false;
  }
  msg->questions.reserve(ReserveCount(r, counts[0], kMinQuestionOctets));
  for (uint16_t i = 0; i < counts[0]; ++i) {
    if (!ReadQuestion(r, &msg->questions.emplace_back())) return false;
  }
  std::vector<ResourceRecord>* sections[] = {&msg->answers, &msg->authority,
                                             &msg->additional};
  for (int s = 0; s < 3; ++s) {
    sections[s]->reserve(ReserveCount(r, counts[s + 1], kMinRecordOctets));
    for (uint16_t i = 0; i < counts[s + 1]; ++i) {
      if (!r.ReadRecord(&sections[s]->emplace_back())) return false;
    }
  }
  if (!r.AtEnd()) return r.Fail("trailing bytes in message");
  return true;
}

}  // namespace

util::StatusOr<Message> Message::Decode(const uint8_t* data, size_t len) {
  WireReader r(data, len);
  Message msg;
  if (!DecodeInto(r, &msg)) return util::ParseError(r.error());
  return msg;
}

bool Message::IsReferral() const {
  if (!header.qr || header.aa) return false;
  if (header.rcode != Rcode::kNoError) return false;
  if (!answers.empty()) return false;
  for (const ResourceRecord& rr : authority) {
    if (rr.type() == RRType::kNS) return true;
  }
  return false;
}

std::string Message::ToString() const {
  std::ostringstream os;
  os << ";; id " << header.id << " " << RcodeName(header.rcode)
     << (header.qr ? " qr" : "") << (header.aa ? " aa" : "")
     << (header.tc ? " tc" : "") << "\n";
  for (const Question& q : questions) {
    os << ";; question: " << q.name << " " << RRTypeName(q.type) << "\n";
  }
  auto dump = [&](const char* label, const std::vector<ResourceRecord>& rrs) {
    for (const ResourceRecord& rr : rrs) {
      os << ";; " << label << ": " << rr.ToString() << "\n";
    }
  };
  dump("answer", answers);
  dump("authority", authority);
  dump("additional", additional);
  return os.str();
}

Message MakeQuery(uint16_t id, const Name& name, RRType type) {
  Message msg;
  msg.header.id = id;
  msg.header.rd = false;  // iterative measurement client: no recursion
  msg.questions.push_back({name, type, RRClass::kIN});
  return msg;
}

Header ResponseHeader(const Header& query, Rcode rcode) {
  Header header;
  header.id = query.id;
  header.qr = true;
  header.rd = query.rd;
  header.rcode = rcode;
  return header;
}

Message MakeResponse(const Message& query, Rcode rcode) {
  Message msg;
  msg.header = ResponseHeader(query.header, rcode);
  msg.questions = query.questions;
  return msg;
}

}  // namespace govdns::dns
