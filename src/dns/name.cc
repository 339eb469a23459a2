#include "dns/name.h"

#include <array>
#include <cstring>
#include <ostream>

#include "util/rng.h"

namespace govdns::dns {

namespace {

constexpr size_t kMaxLabelLength = 63;
// A key of n bytes is n + 2 wire octets; names are capped at 255.
constexpr size_t kMaxKeyLength = 253;

// Each legal label byte maps to its lowercase form; every other byte to 0.
constexpr std::array<char, 256> kLabelByte = [] {
  std::array<char, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = static_cast<char>(c - 'A' + 'a');
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  table['-'] = '-';
  table['_'] = '_';
  return table;
}();

char LabelByte(char c) { return kLabelByte[static_cast<unsigned char>(c)]; }

// A canonical key under construction on the stack.
class KeyBuilder {
 public:
  KeyBuilder() = default;
  // Starts from a key already known to be valid.
  KeyBuilder(std::string_view key, size_t count)
      : size_(key.size()), count_(count) {
    std::memcpy(buf_, key.data(), key.size());
  }

  // Validates `label`, lowercases it and appends it as the new leftmost
  // label. False if the label is invalid or the name would exceed 255 wire
  // octets.
  bool Append(std::string_view label) {
    if (label.empty() || label.size() > kMaxLabelLength) return false;
    const size_t at = count_ == 0 ? 0 : size_ + 1;
    if (at + label.size() > kMaxKeyLength) return false;
    if (count_ > 0) buf_[size_] = '\0';
    char* out = buf_ + at;
    for (char c : label) {
      if ((*out++ = LabelByte(c)) == 0) return false;
    }
    size_ = at + label.size();
    ++count_;
    return true;
  }

  std::string_view key() const { return {buf_, size_}; }
  size_t count() const { return count_; }

 private:
  char buf_[kMaxKeyLength];
  size_t size_ = 0;
  size_t count_ = 0;
};

}  // namespace

static_assert(sizeof(Name) == 32);

bool IsValidLabel(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabelLength) return false;
  for (char c : label) {
    if (LabelByte(c) == 0) return false;
  }
  return true;
}

util::StatusOr<Name> Name::Parse(std::string_view text) {
  if (text.empty()) return util::ParseError("empty name");
  if (text == ".") return Name();
  if (text.back() == '.') text.remove_suffix(1);
  auto bad = [&] {
    return util::ParseError("bad label in name: " + std::string(text));
  };
  KeyBuilder key;
  // The key holds the labels rightmost-first: walk the text back to front.
  size_t end = text.size();
  for (size_t i = text.size(); i-- > 0;) {
    if (text[i] != '.') continue;
    if (!key.Append(text.substr(i + 1, end - i - 1))) return bad();
    end = i;
  }
  if (!key.Append(text.substr(0, end))) return bad();
  return Name(key.key(), key.count());
}

Name Name::FromString(std::string_view text) {
  auto parsed = Parse(text);
  GOVDNS_CHECK(parsed.ok());
  return *std::move(parsed);
}

util::StatusOr<Name> Name::FromLabels(
    std::span<const std::string_view> labels) {
  KeyBuilder key;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    if (!key.Append(*it)) {
      return util::ParseError("invalid label or name over 255 octets: " +
                              std::string(*it));
    }
  }
  return Name(key.key(), key.count());
}

util::StatusOr<Name> Name::FromLabels(const std::vector<std::string>& labels) {
  const std::vector<std::string_view> views(labels.begin(), labels.end());
  return FromLabels(views);
}

util::StatusOr<Name> Name::FromCanonicalKey(std::string_view key) {
  if (key.empty()) return Name();
  KeyBuilder adopted;
  size_t start = 0;
  for (size_t i = 0; i <= key.size(); ++i) {
    if (i < key.size() && key[i] != '\0') continue;
    if (!adopted.Append(key.substr(start, i - start))) {
      return util::ParseError("malformed canonical key");
    }
    start = i + 1;
  }
  return Name(adopted.key(), adopted.count());
}

std::string_view Name::Label(size_t i) const {
  GOVDNS_CHECK(i < count_);
  auto it = labels().begin();
  while (i-- > 0) ++it;
  return *it;
}

std::string Name::ToString() const {
  if (IsRoot()) return ".";
  // Mirror the key: key label [s, e) lands at [n - e, n - s), and the dots
  // fall where the '\0's mirror to.
  const std::string_view key = CanonicalKey();
  const size_t n = key.size();
  std::string out(n, '.');
  for (size_t start = 0;;) {
    const size_t sep = key.find('\0', start);
    const size_t end = sep == std::string_view::npos ? n : sep;
    std::memcpy(out.data() + (n - end), key.data() + start, end - start);
    if (end == n) return out;
    start = end + 1;
  }
}

bool Name::IsSubdomainOf(const Name& other) const {
  const std::string_view key = CanonicalKey();
  const std::string_view ancestor = other.CanonicalKey();
  if (ancestor.empty()) return true;
  return key.starts_with(ancestor) &&
         (key.size() == ancestor.size() || key[ancestor.size()] == '\0');
}

bool Name::IsProperSubdomainOf(const Name& other) const {
  return count_ > other.count_ && IsSubdomainOf(other);
}

Name Name::Parent() const {
  GOVDNS_CHECK(!IsRoot());
  return Suffix(count_ - 1);
}

Name Name::Child(std::string_view label) const {
  KeyBuilder key(CanonicalKey(), count_);
  GOVDNS_CHECK(key.Append(label));
  return Name(key.key(), key.count());
}

Name Name::Suffix(size_t count) const {
  GOVDNS_CHECK(count <= count_);
  if (count == count_) return *this;
  // The rightmost `count` labels are the key up to its count-th '\0'.
  const std::string_view key = CanonicalKey();
  size_t end = 0;
  for (size_t k = 0; k < count; ++k) end = key.find('\0', end) + 1;
  return Name(key.substr(0, end == 0 ? 0 : end - 1), count);
}

size_t Name::Hash::operator()(const Name& n) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (std::string_view label : n.labels()) h = util::HashString(label, h);
  return static_cast<size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const Name& name) {
  return os << name.ToString();
}

}  // namespace govdns::dns
