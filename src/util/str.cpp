#include "util/str.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace mrlg {

namespace {
bool is_ws(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
           c == '\v';
}

/// std::from_chars over all of `s`; `out` changes only on success.
template <typename T>
bool parse_whole(std::string_view s, T& out) {
    T v{};
    const char* const end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || stop != end) {
        return false;
    }
    out = v;
    return true;
}
}  // namespace

bool parse_count(std::string_view s, std::size_t& out) {
    return parse_whole(s, out);
}

bool parse_double(std::string_view s, double& out) {
    return parse_whole(s, out);
}

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && is_ws(s[b])) ++b;
    while (e > b && is_ws(s[e - 1])) --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view> split_ws(std::string_view s) {
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && is_ws(s[i])) ++i;
        std::size_t j = i;
        while (j < s.size() && !is_ws(s[j])) ++j;
        if (j > i) {
            out.push_back(s.substr(i, j - i));
        }
        i = j;
    }
    return out;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

std::string format_fixed(double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string format_si(double value) {
    const char* suffix = "";
    double v = value;
    if (v >= 1e9) {
        v /= 1e9;
        suffix = "G";
    } else if (v >= 1e6) {
        v /= 1e6;
        suffix = "M";
    } else if (v >= 1e3) {
        v /= 1e3;
        suffix = "k";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f%s", v, suffix);
    return buf;
}

}  // namespace mrlg
