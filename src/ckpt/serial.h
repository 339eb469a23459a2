// Byte-level serialization for checkpoint payloads.
//
// Fixed-width little-endian primitives plus length-prefixed strings: the
// format must be byte-identical across runs and platforms because frame
// CRCs — and therefore the journal chain — are computed over these bytes.
// The Reader is fully bounds-checked and latches the first failure instead
// of throwing or aborting: a truncated or corrupted payload must always
// decode to a clean "reject this frame" decision, never to UB (the chaos
// model's rule for wire parsers, applied to our own on-disk format).
//
// Sizes and counts travel as LEB128 varints (Size/Count), never as raw
// U32s: an earlier revision encoded every length as `U32(static_cast<
// uint32_t>(n))`, which silently truncated once a logical length crossed
// 4Gi — at the 10–100x worldgen scales that is a data-corruption bug, not a
// perf bug. The varint path cannot truncate by construction; the one
// remaining way to ask for a 32-bit field (U32Checked) latches a structured
// kInvalidArgument status on the Writer instead of wrapping.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace govdns::ckpt {

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // IEEE-754 bit pattern; used only for diagnostic fields (wall times).
  void F64(double v);
  // LEB128 varint, minimal encoding; the codec for every size and count.
  // Cannot overflow or truncate for any uint64_t (or size_t) input.
  void Size(uint64_t v);
  // Width-checked 32-bit write: refuses (latching a structured status,
  // writing nothing) when v does not fit — the loud replacement for the old
  // silent `U32(static_cast<uint32_t>(v))` truncation. Returns ok().
  bool U32Checked(uint64_t v);
  // Varint length prefix followed by the raw bytes.
  void Str(std::string_view s);
  void Raw(std::string_view bytes) { out_.append(bytes); }

  // False once any checked write failed; the buffer must not be committed.
  bool ok() const { return status_.ok(); }
  const util::Status& status() const { return status_; }

  size_t size() const { return out_.size(); }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
  util::Status status_;
};

class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  // Each getter returns false (leaving *v untouched) once the buffer is
  // exhausted or a prior read failed; ok() stays false from then on.
  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool I64(int64_t* v);
  bool Bool(bool* v);
  bool F64(double* v);
  // Minimal-form LEB128 varint; rejects non-minimal or >64-bit encodings
  // (corruption must not have two spellings of the same value).
  bool Size(uint64_t* v);
  // Size() plus a resize-bomb guard: an element count must be coverable by
  // the bytes that remain (>= 1 byte per element), so a corrupted count can
  // never drive a multi-gigabyte allocation before the bounds checks hit.
  bool Count(size_t* v) { return Count(v, 1); }
  // The same guard for elements that each take at least `min_octets` (> 0)
  // bytes: a count the remaining bytes cannot hold is refused up front. As
  // long as `min_octets` is a true lower bound, this refuses exactly the
  // counts whose elements would run out of bytes later.
  bool Count(size_t* v, size_t min_octets);
  bool Str(std::string* s);
  // Str without the copy: a view into the buffer being read.
  bool View(std::string_view* s);

  bool ok() const { return ok_; }
  // True when every byte was consumed cleanly — trailing garbage is as much
  // a corruption signal as a short read.
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  // Claims n bytes or latches failure.
  const char* Take(size_t n);

  std::string_view buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace govdns::ckpt
