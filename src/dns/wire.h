// RFC 1035 wire format: a latching reader that decodes in place, a writer
// with name compression, and DNS-over-TCP framing.
//
// The simulated network carries real wire-format packets, so every
// measured exchange runs this codec four times (the client encodes the
// query and decodes the reply, the server the reverse). That makes it the
// reproduction's hot loop, and it exercises genuine compression pointers
// and truncation handling.
//
// Reading follows the ckpt::Reader idiom. Every read returns bool and
// writes its output only on success; the first failure latches (every
// later read fails too) and its reason is a static string, so a clean
// decode builds no error text. ReadName walks labels and compression
// pointers once, collecting views into the message, and builds the Name
// through Name::FromLabels, which validates, lowercases and bounds each
// label as it copies it into the key. ReadRecord decodes straight into
// the caller's record, and Message::Decode reads each question and record
// into its section's emplace_back().
//
// Writing reserves RFC 1035's 512-octet UDP limit before the first byte,
// and keeps the compression table inline in the writer, moving it to the
// heap only past its inline capacity, so encoding a typical message
// allocates its output buffer and nothing else.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"

namespace govdns::dns {

class WireWriter {
 public:
  WireWriter();
  // The compression table points into the writer itself.
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

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

  // An append-only array of trivially copyable T that holds its first N
  // elements in place and moves to one heap block, doubling, past them.
  template <typename T, size_t N>
  class InlineTable {
   public:
    InlineTable() = default;
    InlineTable(const InlineTable&) = delete;
    InlineTable& operator=(const InlineTable&) = delete;

    size_t size() const { return size_; }
    const T* data() const { return data_; }
    void Append(const T* items, size_t n) {
      if (n > capacity_ - size_) Grow(size_ + n);
      std::memcpy(data_ + size_, items, n * sizeof(T));
      size_ += n;
    }

   private:
    void Grow(size_t need) {
      capacity_ = std::max(need, 2 * capacity_);
      std::unique_ptr<T[]> heap(new T[capacity_]);
      std::memcpy(heap.get(), data_, size_ * sizeof(T));
      heap_ = std::move(heap);
      data_ = heap_.get();
    }

    T inline_[N];
    std::unique_ptr<T[]> heap_;
    T* data_ = inline_;
    size_t size_ = 0;
    size_t capacity_ = N;
  };

  // Inline room for the compression table of every measured reply, which
  // records at most 21 suffixes and 263 key bytes in the seed-2022 world at
  // scale 0.25; a larger message spills to the heap.
  static constexpr size_t kInlineTargets = 32;
  static constexpr size_t kInlineTargetKeyBytes = 512;

  std::vector<uint8_t> buffer_;
  InlineTable<char, kInlineTargetKeyBytes> target_keys_;
  InlineTable<Target, kInlineTargets> targets_;
};

class WireReader {
 public:
  WireReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  // Each read returns false, leaving its output untouched, when the bytes
  // run out or are malformed, or once an earlier read has failed.
  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadBytes(uint8_t* out, size_t len);

  // Reads a (possibly compressed) domain name. Follows at most 32
  // compression pointers, each strictly backwards; rejects a reserved label
  // type, a name over 255 wire octets and any byte outside the legal label
  // set ('\0' included, so no label can forge a key separator).
  bool ReadName(Name* out);

  // Decodes a full resource record straight into *out. A failed read may
  // leave *out partly written.
  bool ReadRecord(ResourceRecord* out);

  // Latches `reason`, a string literal, unless a failure is already
  // latched; returns false. For checks a caller makes on what it read.
  bool Fail(const char* reason);

  bool ok() const { return error_ == nullptr; }
  // The first failure's reason; nullptr while ok().
  const char* error() const { return error_; }
  size_t remaining() const { return len_ - pos_; }
  // True when every byte was consumed cleanly.
  bool AtEnd() const { return ok() && pos_ == len_; }

 private:
  // Claims n bytes or latches failure.
  const uint8_t* Take(size_t n);
  // Decodes the rdata of `type` in the next `rdlength` bytes into *out.
  bool ReadRdata(uint16_t type, uint16_t rdlength, Rdata* out);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  const char* error_ = nullptr;
};

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
