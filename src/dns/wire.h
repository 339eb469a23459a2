// RFC 1035 wire-format primitives: bounded reader, writer with name
// compression, and rdata codecs.
//
// The simulated network carries real wire-format packets so that the
// measurement client exercises genuine encode/parse paths, including
// compression pointers and truncation handling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "util/status.h"

namespace govdns::dns {

class WireWriter {
 public:
  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteBytes(const uint8_t* data, size_t len);

  // Writes a domain name, using a compression pointer to an earlier
  // occurrence of the longest possible suffix (RFC 1035 §4.1.4). Suffixes
  // are matched by canonical key: the suffix starting at a label is a prefix
  // of the name's key.
  void WriteName(const Name& name);

  // Writes a name without compression (used inside rdata where some
  // implementations forbid pointers; we allow compression only for NS/CNAME
  // /PTR/SOA/MX rdata names as RFC 1035 does).
  void WriteNameUncompressed(const Name& name);

  // Encodes a full resource record, including the RDLENGTH backpatch.
  void WriteRecord(const ResourceRecord& rr);

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

  // Overwrites 2 bytes at `offset` (for RDLENGTH / counts backpatching).
  void PatchU16(size_t offset, uint16_t v);

 private:
  // A name suffix already emitted at an offset a 14-bit pointer reaches:
  // its canonical key is target_keys_[key_begin, key_begin + key_size).
  struct Target {
    uint32_t key_begin;
    uint16_t key_size;
    uint16_t offset;
  };

  std::vector<uint8_t> buffer_;
  std::string target_keys_;
  std::vector<Target> targets_;
};

class WireReader {
 public:
  WireReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  util::StatusOr<uint8_t> ReadU8();
  util::StatusOr<uint16_t> ReadU16();
  util::StatusOr<uint32_t> ReadU32();
  util::Status ReadBytes(uint8_t* out, size_t len);

  // Reads a (possibly compressed) domain name, building its canonical key
  // straight from the wire labels. Rejects pointer loops, forward pointers
  // and invalid labels.
  util::StatusOr<Name> ReadName();

  // Decodes a full resource record starting at the current position.
  util::StatusOr<ResourceRecord> ReadRecord();

  size_t position() const { return pos_; }
  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

// Decodes typed rdata from its wire form. `reader` must be positioned at the
// start of the rdata; `rdlength` bounds it. Name-bearing rdata may contain
// compression pointers into the whole message.
util::StatusOr<Rdata> ReadRdata(WireReader& reader, RRType type,
                                uint16_t rdlength);

// DNS-over-TCP framing (RFC 1035 §4.2.2): each message on a stream is
// prefixed by a two-byte big-endian length.

// Returns `message` with the length prefix prepended. CHECK-fails on
// messages over 65535 bytes — nothing this pipeline builds comes close.
std::vector<uint8_t> FrameTcp(const std::vector<uint8_t>& message);

// Extracts the first complete framed message from a stream buffer. Returns
// nullopt when `len` does not yet cover the prefix plus the full message;
// on success `*consumed` is the total bytes eaten (2 + message length).
std::optional<std::vector<uint8_t>> UnframeTcp(const uint8_t* data, size_t len,
                                               size_t* consumed);

}  // namespace govdns::dns
