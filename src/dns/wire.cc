#include "dns/wire.h"

#include <cstring>

namespace govdns::dns {

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
    for (const Target& t : targets_) {
      if (t.key_size == suffix.size() &&
          target_keys_.compare(t.key_begin, t.key_size, suffix) == 0) {
        WriteU16(static_cast<uint16_t>(0xC000 | t.offset));
        return;
      }
    }
    if (buffer_.size() <= 0x3FFF) {
      targets_.push_back({static_cast<uint32_t>(target_keys_.size()),
                          static_cast<uint16_t>(suffix.size()),
                          static_cast<uint16_t>(buffer_.size())});
      target_keys_ += suffix;
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

util::StatusOr<uint8_t> WireReader::ReadU8() {
  if (pos_ + 1 > len_) return util::ParseError("truncated u8");
  return data_[pos_++];
}

util::StatusOr<uint16_t> WireReader::ReadU16() {
  if (pos_ + 2 > len_) return util::ParseError("truncated u16");
  uint16_t v = static_cast<uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

util::StatusOr<uint32_t> WireReader::ReadU32() {
  if (pos_ + 4 > len_) return util::ParseError("truncated u32");
  uint32_t v = (uint32_t{data_[pos_]} << 24) | (uint32_t{data_[pos_ + 1]} << 16) |
               (uint32_t{data_[pos_ + 2]} << 8) | data_[pos_ + 3];
  pos_ += 4;
  return v;
}

util::Status WireReader::ReadBytes(uint8_t* out, size_t len) {
  if (pos_ + len > len_) return util::ParseError("truncated bytes");
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return util::Status::Ok();
}

util::StatusOr<Name> WireReader::ReadName() {
  // Offsets of the labels' length bytes, leftmost first; 255 wire octets
  // hold at most 127 labels.
  size_t label_at[127];
  size_t count = 0;
  size_t wire_len = 1;
  size_t pos = pos_;
  size_t resume = 0;  // just past the first compression pointer, if any
  int pointers = 0;
  for (;;) {
    if (pos >= len_) return util::ParseError("truncated name");
    const uint8_t len_byte = data_[pos];
    if ((len_byte & 0xC0) == 0xC0) {
      if (pos + 2 > len_) return util::ParseError("truncated pointer");
      const size_t target = (static_cast<size_t>(len_byte & 0x3F) << 8) |
                            data_[pos + 1];
      if (target >= pos) return util::ParseError("forward compression pointer");
      if (++pointers > 32) return util::ParseError("compression pointer loop");
      if (resume == 0) resume = pos + 2;
      pos = target;
      continue;
    }
    if ((len_byte & 0xC0) != 0) {
      return util::ParseError("reserved label type");
    }
    if (len_byte == 0) {
      ++pos;
      break;
    }
    if (pos + 1 + len_byte > len_) return util::ParseError("truncated label");
    wire_len += 1 + len_byte;
    if (wire_len > 255) return util::ParseError("name too long");
    // A '\0' inside a label would forge a label boundary in the key.
    if (std::memchr(data_ + pos + 1, 0, len_byte) != nullptr) {
      return util::ParseError("NUL byte in label");
    }
    label_at[count++] = pos;
    pos += 1 + len_byte;
  }
  pos_ = resume != 0 ? resume : pos;
  // The key holds the labels rightmost-first; FromCanonicalKey validates
  // and lowercases them.
  char key[253];
  size_t key_len = 0;
  for (size_t i = count; i-- > 0;) {
    const size_t len = data_[label_at[i]];
    if (key_len > 0) key[key_len++] = '\0';
    std::memcpy(key + key_len, data_ + label_at[i] + 1, len);
    key_len += len;
  }
  return Name::FromCanonicalKey(std::string_view(key, key_len));
}

util::StatusOr<Rdata> ReadRdata(WireReader& reader, RRType type,
                                uint16_t rdlength) {
  const size_t rdata_end = reader.position() + rdlength;
  auto check_consumed = [&](Rdata rdata) -> util::StatusOr<Rdata> {
    if (reader.position() != rdata_end) {
      return util::ParseError("rdata length mismatch");
    }
    return rdata;
  };
  switch (type) {
    case RRType::kA: {
      auto bits = reader.ReadU32();
      if (!bits.ok()) return bits.status();
      return check_consumed(ARdata{geo::IPv4(*bits)});
    }
    case RRType::kAAAA: {
      AaaaRdata r;
      GOVDNS_RETURN_IF_ERROR(reader.ReadBytes(r.address.data(), 16));
      return check_consumed(std::move(r));
    }
    case RRType::kNS: {
      auto name = reader.ReadName();
      if (!name.ok()) return name.status();
      return check_consumed(NsRdata{*std::move(name)});
    }
    case RRType::kCNAME: {
      auto name = reader.ReadName();
      if (!name.ok()) return name.status();
      return check_consumed(CnameRdata{*std::move(name)});
    }
    case RRType::kPTR: {
      auto name = reader.ReadName();
      if (!name.ok()) return name.status();
      return check_consumed(PtrRdata{*std::move(name)});
    }
    case RRType::kMX: {
      auto pref = reader.ReadU16();
      if (!pref.ok()) return pref.status();
      auto name = reader.ReadName();
      if (!name.ok()) return name.status();
      return check_consumed(MxRdata{*pref, *std::move(name)});
    }
    case RRType::kSOA: {
      SoaRdata r;
      auto mname = reader.ReadName();
      if (!mname.ok()) return mname.status();
      r.mname = *std::move(mname);
      auto rname = reader.ReadName();
      if (!rname.ok()) return rname.status();
      r.rname = *std::move(rname);
      for (uint32_t* field :
           {&r.serial, &r.refresh, &r.retry, &r.expire, &r.minimum}) {
        auto v = reader.ReadU32();
        if (!v.ok()) return v.status();
        *field = *v;
      }
      return check_consumed(std::move(r));
    }
    case RRType::kTXT: {
      TxtRdata r;
      while (reader.position() < rdata_end) {
        auto len = reader.ReadU8();
        if (!len.ok()) return len.status();
        std::string s(*len, '\0');
        GOVDNS_RETURN_IF_ERROR(
            reader.ReadBytes(reinterpret_cast<uint8_t*>(s.data()), *len));
        r.strings.push_back(std::move(s));
      }
      return check_consumed(std::move(r));
    }
  }
  return util::ParseError("unsupported rdata type");
}

util::StatusOr<ResourceRecord> WireReader::ReadRecord() {
  ResourceRecord rr;
  auto name = ReadName();
  if (!name.ok()) return name.status();
  rr.name = *std::move(name);
  auto type = ReadU16();
  if (!type.ok()) return type.status();
  auto klass = ReadU16();
  if (!klass.ok()) return klass.status();
  if (*klass != static_cast<uint16_t>(RRClass::kIN)) {
    return util::ParseError("unsupported class");
  }
  rr.klass = RRClass::kIN;
  auto ttl = ReadU32();
  if (!ttl.ok()) return ttl.status();
  rr.ttl = *ttl;
  auto rdlength = ReadU16();
  if (!rdlength.ok()) return rdlength.status();
  if (position() + *rdlength > len_) {
    return util::ParseError("rdata exceeds message");
  }
  auto rdata = ReadRdata(*this, static_cast<RRType>(*type), *rdlength);
  if (!rdata.ok()) return rdata.status();
  rr.rdata = *std::move(rdata);
  return rr;
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
