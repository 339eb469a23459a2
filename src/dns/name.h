// DNS domain names.
//
// A Name is an ordered list of labels, least-significant first in
// presentation order ("www.gov.au" = labels {www, gov, au}). Names are
// stored lowercased: DNS comparison is ASCII case-insensitive (RFC 1035
// §2.3.3) and nothing in this codebase needs to preserve the original case.
//
// Representation: one byte string, the canonical key — labels
// rightmost-first, joined by '\0' ("www.gov.au" -> "au\0gov\0www"; the root
// -> "") — plus the label count. Every constructor validates its labels, so
// '\0' never occurs inside a label and every '\0' in a key is a label
// boundary. Because '\0' also sorts below every legal label byte, memcmp
// order on keys is canonical DNS order: comparison is one memcmp, and the
// subdomain test, Suffix and Parent are prefix and label-boundary
// operations on the key.
//
// A Name is 32 bytes. Keys up to 30 bytes live inline — in a generated
// world that is 99.8% of names, where std::string's 15-byte inline buffer
// held about a third of them — so copying a Name rarely allocates. A
// longer key lives in an exactly sized heap block whose pointer takes the
// inline bytes' place.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace govdns::dns {

class Name {
 public:
  // The labels leftmost-first, as views into the key (walked from its end).
  class LabelRange {
   public:
    class Iterator {
     public:
      Iterator() = default;
      std::string_view operator*() const {
        return key_.substr(start_, end_ - start_);
      }
      Iterator& operator++() {
        if (--left_ > 0) {
          end_ = start_ - 1;
          start_ = LabelStart(key_, end_);
        }
        return *this;
      }
      // Iterators of one range are equal when as many labels remain.
      bool operator==(const Iterator& other) const {
        return left_ == other.left_;
      }

     private:
      friend class LabelRange;
      Iterator(std::string_view key, size_t count)
          : key_(key),
            start_(LabelStart(key, key.size())),
            end_(key.size()),
            left_(count) {}

      std::string_view key_;
      size_t start_ = 0;
      size_t end_ = 0;
      size_t left_ = 0;
    };

    Iterator begin() const { return Iterator(key_, count_); }
    Iterator end() const { return Iterator(); }

   private:
    friend class Name;
    LabelRange(std::string_view key, size_t count) : key_(key), count_(count) {}

    std::string_view key_;
    size_t count_;
  };

  // The most labels a name can have: 127 one-octet labels fill 255 octets.
  static constexpr size_t kMaxLabels = 127;

  // The root name (zero labels).
  Name() = default;
  Name(const Name& other) { CopyFrom(other); }
  // A moved-from Name is the root.
  Name(Name&& other) noexcept { Steal(other); }
  Name& operator=(const Name& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  Name& operator=(Name&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  ~Name() { Release(); }

  // Parses presentation format. Accepts an optional trailing dot; "." is the
  // root. Rejects empty labels, labels > 63 octets, and names > 255 octets.
  static util::StatusOr<Name> Parse(std::string_view text);

  // Parses or aborts; for literals known to be valid at compile time.
  static Name FromString(std::string_view text);

  static Name Root() { return Name(); }

  // Builds from labels ordered leftmost-first (e.g. {"www", "gov", "au"}),
  // validating and lowercasing each straight into the key. Rejects an
  // invalid label or a name over 255 wire octets.
  static util::StatusOr<Name> FromLabels(
      std::span<const std::string_view> labels);
  static util::StatusOr<Name> FromLabels(const std::vector<std::string>& labels);

  bool IsRoot() const { return count_ == 0; }
  size_t LabelCount() const { return count_; }
  LabelRange labels() const { return LabelRange(CanonicalKey(), count_); }
  // Label i, counted from the left ("www.gov.au".Label(0) == "www").
  std::string_view Label(size_t i) const;

  // Presentation format without trailing dot; "." for the root.
  std::string ToString() const;

  // True if *this is `other` or a descendant of it. Every name is a
  // subdomain of the root.
  bool IsSubdomainOf(const Name& other) const;
  // Strict descendant (excludes equality).
  bool IsProperSubdomainOf(const Name& other) const;

  // Name with the leftmost label removed. Aborts on the root.
  Name Parent() const;

  // New name with `label` prepended ("mail" + "gov.au" -> "mail.gov.au").
  // Aborts if the label is invalid or the result exceeds length limits.
  Name Child(std::string_view label) const;

  // Keeps only the `count` rightmost labels ("a.b.gov.au".Suffix(2) ->
  // "gov.au"). count must be <= LabelCount().
  Name Suffix(size_t count) const;

  // Total wire length in octets: sum of (1 + label size) + 1 root byte.
  size_t WireLength() const { return IsRoot() ? 1 : size_ + 2; }

  // The stored key (see the representation note above). A memory-mapped
  // snapshot binary-searches these bytes directly (pdns/db.h).
  std::string_view CanonicalKey() const {
    return {OnHeap() ? HeapKey() : inline_, size_};
  }
  // Validates `key` and adopts it (lowercased). Rejects malformed keys — a
  // leading, trailing or doubled '\0', an invalid label, or more than 255
  // wire octets — rather than aborting, since keys arrive from disk.
  static util::StatusOr<Name> FromCanonicalKey(std::string_view key);

  // Lexicographic by label from the right (canonical DNS ordering); equal
  // names compare equal. Usable as std::map key.
  std::strong_ordering operator<=>(const Name& other) const {
    return CanonicalKey() <=> other.CanonicalKey();
  }
  bool operator==(const Name& other) const {
    return CanonicalKey() == other.CanonicalKey();
  }

  // Hashes the labels leftmost-first through util::HashString.
  struct Hash {
    size_t operator()(const Name& n) const;
  };

 private:
  static constexpr size_t kInlineKey = 30;

  // Start of the key label that ends at `end`: just past the previous '\0'.
  static size_t LabelStart(std::string_view key, size_t end) {
    const size_t sep = key.substr(0, end).rfind('\0');
    return sep == std::string_view::npos ? 0 : sep + 1;
  }

  // Adopts a key already known to be valid.
  Name(std::string_view key, size_t count) { Assign(key, count); }

  bool OnHeap() const { return size_ > kInlineKey; }
  char* HeapKey() const {
    char* heap;
    std::memcpy(&heap, inline_, sizeof heap);
    return heap;
  }
  // Copies `key` (already valid) into *this, which holds no heap key.
  void Assign(std::string_view key, size_t count) {
    char* out = inline_;
    if (key.size() > kInlineKey) {
      out = new char[key.size()];
      std::memcpy(inline_, &out, sizeof out);
    }
    std::memcpy(out, key.data(), key.size());
    size_ = static_cast<uint8_t>(key.size());
    count_ = static_cast<uint8_t>(count);
  }
  // Copies `other` into *this, which holds no heap key.
  void CopyFrom(const Name& other) {
    if (other.OnHeap()) {
      Assign(other.CanonicalKey(), other.count_);
      return;
    }
    std::memcpy(inline_, other.inline_, kInlineKey);
    size_ = other.size_;
    count_ = other.count_;
  }
  // Takes `other`'s key and leaves it the root; *this holds no heap key.
  void Steal(Name& other) {
    std::memcpy(inline_, other.inline_, kInlineKey);
    size_ = other.size_;
    count_ = other.count_;
    other.size_ = 0;
    other.count_ = 0;
  }
  // Frees the heap key, if any, leaving the root.
  void Release() {
    if (OnHeap()) delete[] HeapKey();
    size_ = 0;
    count_ = 0;
  }

  char inline_[kInlineKey] = {};
  uint8_t size_ = 0;
  uint8_t count_ = 0;
};

// True if `label` is a legal DNS label for our purposes: 1-63 octets of
// letters, digits, hyphen, or underscore (seen in real NS hostnames).
bool IsValidLabel(std::string_view label);

std::ostream& operator<<(std::ostream& os, const Name& name);

}  // namespace govdns::dns
