// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace govdns::util {

// Splits on a single character; empty pieces are kept ("a..b" -> a, "", b).
std::vector<std::string> Split(std::string_view text, char sep);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII-only lowering, sufficient for DNS hostnames.
std::string ToLower(std::string_view text);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// True if `text` ends with `suffix`, ASCII case-insensitively.
bool EndsWithIgnoreCase(std::string_view text, std::string_view suffix);

bool ContainsIgnoreCase(std::string_view text, std::string_view needle);

// Formats n with thousands separators: 1234567 -> "1,234,567".
std::string WithCommas(int64_t n);

// Formats a ratio as a percentage with one decimal: 0.2954 -> "29.5%".
std::string Percent(double ratio, int decimals = 1);

// Strict parsers for command-line values: the whole token must be one
// decimal number ("1", "0.25", "1e3"; no '+', no surrounding space, no
// trailing text, no sign on an unsigned value), finite, and within
// [0, max] or [min, max]. Anything else, "nan" and "inf" included, is
// nullopt.
std::optional<uint64_t> ParseUint(std::string_view text, uint64_t max);
std::optional<double> ParseDouble(std::string_view text, double min,
                                  double max);

}  // namespace govdns::util
