#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace govdns::util {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool EndsWithIgnoreCase(std::string_view text, std::string_view suffix) {
  if (suffix.size() > text.size()) return false;
  return EqualsIgnoreCase(text.substr(text.size() - suffix.size()), suffix);
}

bool ContainsIgnoreCase(std::string_view text, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > text.size()) return false;
  for (size_t i = 0; i + needle.size() <= text.size(); ++i) {
    if (EqualsIgnoreCase(text.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

std::string WithCommas(int64_t n) {
  std::string digits = std::to_string(n < 0 ? -n : n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (n < 0) out += '-';
  return {out.rbegin(), out.rend()};
}

std::string Percent(double ratio, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, ratio * 100.0);
  return buf;
}

std::optional<uint64_t> ParseUint(std::string_view text, uint64_t max) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text, double min,
                                  double max) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace govdns::util
