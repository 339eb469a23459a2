#include "ckpt/serial.h"

#include <cstring>
#include <limits>

namespace govdns::ckpt {

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
}

void Writer::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  U64(bits);
}

void Writer::Size(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

bool Writer::U32Checked(uint64_t v) {
  if (v > std::numeric_limits<uint32_t>::max()) {
    if (status_.ok()) {
      status_ = util::InvalidArgumentError(
          "u32 overflow: " + std::to_string(v) + " does not fit in 32 bits");
    }
    return false;
  }
  U32(static_cast<uint32_t>(v));
  return ok();
}

void Writer::Str(std::string_view s) {
  Size(s.size());
  out_.append(s);
}

const char* Reader::Take(size_t n) {
  if (!ok_ || n > buf_.size() - pos_) {
    ok_ = false;
    return nullptr;
  }
  const char* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

bool Reader::U8(uint8_t* v) {
  const char* p = Take(1);
  if (p == nullptr) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Reader::U32(uint32_t* v) {
  const char* p = Take(4);
  if (p == nullptr) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool Reader::U64(uint64_t* v) {
  const char* p = Take(8);
  if (p == nullptr) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool Reader::I32(int32_t* v) {
  uint32_t u = 0;
  if (!U32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool Reader::I64(int64_t* v) {
  uint64_t u = 0;
  if (!U64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool Reader::Bool(bool* v) {
  uint8_t u = 0;
  if (!U8(&u)) return false;
  // Any non-{0,1} byte is corruption, not a creative truthy value.
  if (u > 1) {
    ok_ = false;
    return false;
  }
  *v = u != 0;
  return true;
}

bool Reader::F64(double* v) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof bits);
  return true;
}

bool Reader::Size(uint64_t* v) {
  uint64_t out = 0;
  uint8_t byte = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!U8(&byte)) return false;
    const uint64_t low = byte & 0x7F;
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (shift == 63 && low > 1) {
      ok_ = false;
      return false;
    }
    out |= low << shift;
    if ((byte & 0x80) == 0) {
      // Minimal form only: a multi-byte encoding must not end in a zero
      // group (two spellings of one value would defeat corruption checks).
      if (shift > 0 && low == 0) {
        ok_ = false;
        return false;
      }
      *v = out;
      return true;
    }
  }
  ok_ = false;  // continuation bit past 64 bits
  return false;
}

bool Reader::Count(size_t* v, size_t min_octets) {
  uint64_t n = 0;
  if (!Size(&n)) return false;
  if (n > remaining() / min_octets) {
    ok_ = false;
    return false;
  }
  *v = static_cast<size_t>(n);
  return true;
}

bool Reader::Str(std::string* s) {
  std::string_view view;
  if (!View(&view)) return false;
  s->assign(view);
  return true;
}

bool Reader::View(std::string_view* s) {
  size_t len = 0;
  if (!Count(&len)) return false;
  const char* p = Take(len);
  if (p == nullptr) return false;
  *s = std::string_view(p, len);
  return true;
}

}  // namespace govdns::ckpt
