// Shared strict flag parsing for the CLI tools, benches, and the server.
//
// The historical `--jobs=` handlers used strtoul + "0 means 1" coercion,
// which silently accepted `--jobs=abc` (strtoul returns 0) and
// `--jobs=-3` (wraps to a huge unsigned). A typo'd worker count should be
// a loud usage error, not a silently-serial run — these helpers reject
// non-numeric, negative, zero, and out-of-range values with a message
// naming the flag.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace pbse::support {

/// Strict base-10 parse of an unsigned integer: the whole string must be
/// digits (no sign, no whitespace, no trailing junk, no overflow).
bool parse_u64(const std::string& text, std::uint64_t& out);

/// Parses a count flag value such as `--jobs=N` or `--workers=N` in
/// [1, max]. On failure returns false and fills `error` with a one-line
/// diagnostic that names `flag`.
bool parse_positive_count(const std::string& flag, const std::string& value,
                          unsigned& out, std::string& error,
                          unsigned max = std::numeric_limits<unsigned>::max());

/// Same strictness for u64-valued flags (tick budgets, intervals) with an
/// inclusive minimum.
bool parse_u64_flag(const std::string& flag, const std::string& value,
                    std::uint64_t min, std::uint64_t& out, std::string& error);

}  // namespace pbse::support
