#include "dns/wire.h"

#include <cstring>
#include <span>
#include <string_view>

#include "util/status.h"

namespace govdns::dns {

namespace {

// RFC 1035's limit on a UDP message. A measured exchange's reply is far
// below it: at most 348 octets in the seed-2022 world at scale 0.25.
constexpr size_t kUdpMessageLimit = 512;

}  // namespace

WireWriter::WireWriter() { buffer_.reserve(kUdpMessageLimit); }

void WireWriter::WriteU8(uint8_t v) { buffer_.push_back(v); }

void WireWriter::WriteU16(uint16_t v) {
  buffer_.push_back(static_cast<uint8_t>(v >> 8));
  buffer_.push_back(static_cast<uint8_t>(v & 0xFF));
}

void WireWriter::WriteU32(uint32_t v) {
  WriteU16(static_cast<uint16_t>(v >> 16));
  WriteU16(static_cast<uint16_t>(v & 0xFFFF));
}

void WireWriter::WriteBytes(const uint8_t* data, size_t len) {
  buffer_.insert(buffer_.end(), data, data + len);
}

void WireWriter::PatchU16(size_t offset, uint16_t v) {
  GOVDNS_CHECK(offset + 2 <= buffer_.size());
  buffer_[offset] = static_cast<uint8_t>(v >> 8);
  buffer_[offset + 1] = static_cast<uint8_t>(v & 0xFF);
}

void WireWriter::WriteName(const Name& name) {
  // Emit labels until a suffix we have already emitted appears; then emit a
  // compression pointer to it. Record offsets for every new suffix that is
  // still addressable by a 14-bit pointer.
  const std::string_view key = name.CanonicalKey();
  for (const std::string_view label : name.labels()) {
    // The suffix starting at this label is the key up to the label's end.
    const std::string_view suffix =
        key.substr(0, label.data() + label.size() - key.data());
    const Target* const targets = targets_.data();
    for (size_t i = 0; i < targets_.size(); ++i) {
      const Target& t = targets[i];
      if (t.key_size == suffix.size() &&
          std::memcmp(target_keys_.data() + t.key_begin, suffix.data(),
                      suffix.size()) == 0) {
        WriteU16(static_cast<uint16_t>(0xC000 | t.offset));
        return;
      }
    }
    if (buffer_.size() <= 0x3FFF) {
      const Target t{static_cast<uint32_t>(target_keys_.size()),
                     static_cast<uint16_t>(suffix.size()),
                     static_cast<uint16_t>(buffer_.size())};
      targets_.Append(&t, 1);
      target_keys_.Append(suffix.data(), suffix.size());
    }
    WriteU8(static_cast<uint8_t>(label.size()));
    WriteBytes(reinterpret_cast<const uint8_t*>(label.data()), label.size());
  }
  WriteU8(0);  // root
}

void WireWriter::WriteNameUncompressed(const Name& name) {
  for (const std::string_view label : name.labels()) {
    WriteU8(static_cast<uint8_t>(label.size()));
    WriteBytes(reinterpret_cast<const uint8_t*>(label.data()), label.size());
  }
  WriteU8(0);
}

namespace {

void WriteRdata(WireWriter& w, const Rdata& rdata) {
  struct Visitor {
    WireWriter& w;
    void operator()(const ARdata& r) const { w.WriteU32(r.address.bits()); }
    void operator()(const AaaaRdata& r) const {
      w.WriteBytes(r.address.data(), r.address.size());
    }
    void operator()(const NsRdata& r) const { w.WriteName(r.nameserver); }
    void operator()(const CnameRdata& r) const { w.WriteName(r.target); }
    void operator()(const PtrRdata& r) const { w.WriteName(r.target); }
    void operator()(const MxRdata& r) const {
      w.WriteU16(r.preference);
      w.WriteName(r.exchange);
    }
    void operator()(const SoaRdata& r) const {
      w.WriteName(r.mname);
      w.WriteName(r.rname);
      w.WriteU32(r.serial);
      w.WriteU32(r.refresh);
      w.WriteU32(r.retry);
      w.WriteU32(r.expire);
      w.WriteU32(r.minimum);
    }
    void operator()(const TxtRdata& r) const {
      for (const std::string& s : r.strings) {
        GOVDNS_CHECK(s.size() <= 255);
        w.WriteU8(static_cast<uint8_t>(s.size()));
        w.WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
      }
    }
  };
  std::visit(Visitor{w}, rdata);
}

}  // namespace

void WireWriter::WriteRecord(const ResourceRecord& rr) {
  WriteName(rr.name);
  WriteU16(static_cast<uint16_t>(rr.type()));
  WriteU16(static_cast<uint16_t>(rr.klass));
  WriteU32(rr.ttl);
  size_t rdlength_offset = buffer_.size();
  WriteU16(0);  // placeholder
  size_t rdata_start = buffer_.size();
  WriteRdata(*this, rr.rdata);
  size_t rdlen = buffer_.size() - rdata_start;
  GOVDNS_CHECK(rdlen <= 0xFFFF);
  PatchU16(rdlength_offset, static_cast<uint16_t>(rdlen));
}

const uint8_t* WireReader::Take(size_t n) {
  if (!ok()) return nullptr;
  if (n > len_ - pos_) {
    Fail("truncated message");
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

bool WireReader::Fail(const char* reason) {
  if (error_ == nullptr) error_ = reason;
  return false;
}

bool WireReader::ReadU8(uint8_t* v) {
  const uint8_t* p = Take(1);
  if (p == nullptr) return false;
  *v = p[0];
  return true;
}

bool WireReader::ReadU16(uint16_t* v) {
  const uint8_t* p = Take(2);
  if (p == nullptr) return false;
  *v = static_cast<uint16_t>((p[0] << 8) | p[1]);
  return true;
}

bool WireReader::ReadU32(uint32_t* v) {
  const uint8_t* p = Take(4);
  if (p == nullptr) return false;
  *v = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) |
       p[3];
  return true;
}

bool WireReader::ReadBytes(uint8_t* out, size_t len) {
  const uint8_t* p = Take(len);
  if (p == nullptr) return false;
  std::memcpy(out, p, len);
  return true;
}

bool WireReader::ReadName(Name* out) {
  if (!ok()) return false;
  // The labels leftmost-first, as views into the message; the 255-octet
  // bound below holds them to Name::kMaxLabels. The union leaves the slots
  // uninitialized: zero-filling all 127 on every call took about a quarter
  // of a reply's decode time.
  union LabelSlots {
    LabelSlots() {}
    std::string_view views[Name::kMaxLabels];
  } slots;
  std::string_view* const labels = slots.views;
  size_t count = 0;
  size_t wire_len = 1;
  size_t pos = pos_;
  size_t resume = 0;  // just past the first compression pointer, if any
  int pointers = 0;
  for (;;) {
    if (pos >= len_) return Fail("truncated name");
    const uint8_t len_byte = data_[pos];
    if ((len_byte & 0xC0) == 0xC0) {
      if (pos + 2 > len_) return Fail("truncated pointer");
      const size_t target = (static_cast<size_t>(len_byte & 0x3F) << 8) |
                            data_[pos + 1];
      if (target >= pos) return Fail("forward compression pointer");
      if (++pointers > 32) return Fail("compression pointer loop");
      if (resume == 0) resume = pos + 2;
      pos = target;
      continue;
    }
    if ((len_byte & 0xC0) != 0) return Fail("reserved label type");
    if (len_byte == 0) {
      ++pos;
      break;
    }
    if (pos + 1 + len_byte > len_) return Fail("truncated label");
    wire_len += 1 + len_byte;
    if (wire_len > 255) return Fail("name too long");
    labels[count++] = {reinterpret_cast<const char*>(data_ + pos + 1),
                       len_byte};
    pos += 1 + len_byte;
  }
  // FromLabels checks every byte against the legal label set ('\0' is not
  // in it) as it lowercases the labels into the key.
  auto name = Name::FromLabels(std::span<const std::string_view>(labels, count));
  if (!name.ok()) return Fail("illegal byte in label");
  *out = *std::move(name);
  pos_ = resume != 0 ? resume : pos;
  return true;
}

bool WireReader::ReadRdata(uint16_t type, uint16_t rdlength, Rdata* out) {
  const size_t rdata_end = pos_ + rdlength;
  bool read = false;
  switch (static_cast<RRType>(type)) {
    case RRType::kA: {
      uint32_t bits = 0;
      read = ReadU32(&bits);
      if (read) *out = ARdata{geo::IPv4(bits)};
      break;
    }
    case RRType::kAAAA:
      read = ReadBytes(out->emplace<AaaaRdata>().address.data(), 16);
      break;
    case RRType::kNS:
      read = ReadName(&out->emplace<NsRdata>().nameserver);
      break;
    case RRType::kCNAME:
      read = ReadName(&out->emplace<CnameRdata>().target);
      break;
    case RRType::kPTR:
      read = ReadName(&out->emplace<PtrRdata>().target);
      break;
    case RRType::kMX: {
      MxRdata& mx = out->emplace<MxRdata>();
      read = ReadU16(&mx.preference) && ReadName(&mx.exchange);
      break;
    }
    case RRType::kSOA: {
      SoaRdata& soa = out->emplace<SoaRdata>();
      read = ReadName(&soa.mname) && ReadName(&soa.rname) &&
             ReadU32(&soa.serial) && ReadU32(&soa.refresh) &&
             ReadU32(&soa.retry) && ReadU32(&soa.expire) &&
             ReadU32(&soa.minimum);
      break;
    }
    case RRType::kTXT: {
      TxtRdata& txt = out->emplace<TxtRdata>();
      uint8_t len = 0;
      while (pos_ < rdata_end && ReadU8(&len)) {
        const uint8_t* bytes = Take(len);
        if (bytes == nullptr) return false;
        txt.strings.emplace_back(reinterpret_cast<const char*>(bytes), len);
      }
      read = ok();
      break;
    }
    default:
      return Fail("unsupported rdata type");
  }
  if (!read) return false;
  if (pos_ != rdata_end) return Fail("rdata length mismatch");
  return true;
}

bool WireReader::ReadRecord(ResourceRecord* out) {
  uint16_t type = 0;
  uint16_t klass = 0;
  uint16_t rdlength = 0;
  if (!ReadName(&out->name) || !ReadU16(&type) || !ReadU16(&klass)) {
    return false;
  }
  if (klass != static_cast<uint16_t>(RRClass::kIN)) {
    return Fail("unsupported class");
  }
  out->klass = RRClass::kIN;
  if (!ReadU32(&out->ttl) || !ReadU16(&rdlength)) return false;
  if (rdlength > remaining()) return Fail("rdata exceeds message");
  return ReadRdata(type, rdlength, &out->rdata);
}

std::vector<uint8_t> FrameTcp(const std::vector<uint8_t>& message) {
  GOVDNS_CHECK(message.size() <= 0xFFFF);
  std::vector<uint8_t> framed;
  framed.reserve(message.size() + 2);
  framed.push_back(static_cast<uint8_t>(message.size() >> 8));
  framed.push_back(static_cast<uint8_t>(message.size() & 0xFF));
  framed.insert(framed.end(), message.begin(), message.end());
  return framed;
}

std::optional<std::vector<uint8_t>> UnframeTcp(const uint8_t* data, size_t len,
                                               size_t* consumed) {
  if (len < 2) return std::nullopt;
  const size_t msg_len = static_cast<size_t>(data[0]) << 8 | data[1];
  if (len < 2 + msg_len) return std::nullopt;
  if (consumed != nullptr) *consumed = 2 + msg_len;
  return std::vector<uint8_t>(data + 2, data + 2 + msg_len);
}

}  // namespace govdns::dns
