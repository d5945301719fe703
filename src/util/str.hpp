#pragma once
/// \file str.hpp
/// Small string helpers shared by the Bookshelf parser and report printers.

#include <string>
#include <string_view>
#include <vector>

namespace mrlg {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view s);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// True when `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Case-insensitive equality (ASCII).
bool iequals(std::string_view a, std::string_view b);

/// Parses all of `s` as a non-negative decimal integer. False on an empty
/// string, a sign, trailing characters or overflow; `out` is then unchanged.
bool parse_count(std::string_view s, std::size_t& out);

/// Parses all of `s` as a decimal floating-point number. False on an empty
/// string or trailing characters; `out` is then unchanged.
bool parse_double(std::string_view s, double& out);

/// Format a double with `digits` decimals (locale-independent).
std::string format_fixed(double value, int digits);

/// Format like "1.23k" / "4.5M" for large counts.
std::string format_si(double value);

}  // namespace mrlg
