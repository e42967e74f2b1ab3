#include "support/argparse.h"

#include <limits>

namespace pbse::support {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return false;  // overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_positive_count(const std::string& flag, const std::string& value,
                          unsigned& out, std::string& error, unsigned max) {
  std::uint64_t v = 0;
  if (!parse_u64(value, v)) {
    error = flag + " expects a positive integer, got '" + value + "'";
    return false;
  }
  if (v == 0) {
    error = flag + " must be at least 1, got 0";
    return false;
  }
  if (v > max) {
    error = flag + " must be at most " + std::to_string(max) + ", got " +
            value;
    return false;
  }
  out = static_cast<unsigned>(v);
  return true;
}

bool parse_u64_flag(const std::string& flag, const std::string& value,
                    std::uint64_t min, std::uint64_t& out, std::string& error) {
  std::uint64_t v = 0;
  if (!parse_u64(value, v)) {
    error = flag + " expects a non-negative integer, got '" + value + "'";
    return false;
  }
  if (v < min) {
    error = flag + " must be at least " + std::to_string(min) + ", got " +
            value;
    return false;
  }
  out = v;
  return true;
}

}  // namespace pbse::support
