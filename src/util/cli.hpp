#pragma once
/// \file cli.hpp
/// The command-line parser every mrlg program shares: `--key value`
/// options, bare `--flag` switches and leading positional arguments.
///
/// Readers validate as they read. Each leaves its output untouched when
/// its argument is absent, and records the first bad key when a value is
/// missing, malformed or out of range. Every key a program asks about
/// (through `has`, `value` or a reader) is remembered, and an argument that
/// starts with "--" but was never asked about is an unknown flag. A program
/// asks about all of its flags, switches included, then checks `ok()` once
/// and answers a bad or unknown one with `usage(...)`.

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mrlg {

class Flags {
public:
    /// Whether a real reader's upper bound is itself an allowed value.
    enum class Upper { kOpen, kClosed };

    /// `positional_names` name the leading positional arguments (those
    /// before the first argument that starts with "--"), in order, so that
    /// value() and the readers find them by name.
    Flags(int argc, const char* const* argv,
          std::vector<std::string_view> positional_names = {});

    /// True when `key` appears anywhere on the command line.
    bool has(std::string_view key);

    /// The argument after `key` (or the positional argument so named), or
    /// nullptr when absent. A `key` given last, with no value after it, is
    /// recorded as bad.
    const char* value(std::string_view key);

    /// The `index`-th leading positional argument, or nullptr.
    const char* positional(std::size_t index) const;

    /// Reads `key`'s value as a whole number in [0, max] into `out`.
    template <typename T>
    void count(std::string_view key, T& out,
               std::size_t max = std::numeric_limits<T>::max()) {
        std::size_t v = 0;
        if (read_count(key, max, v)) {
            out = static_cast<T>(v);
        }
    }

    /// Reads `key`'s value as a real number in (lo, hi), or (lo, hi] when
    /// `upper` is kClosed, into `out`.
    void real(std::string_view key, double& out, double lo, double hi,
              Upper upper);

    /// Reads `key`'s value as a comma-separated list of positive ints
    /// ("1,2,4") into `out`.
    void int_list(std::string_view key, std::vector<int>& out);

    /// Records `key` as bad unless an earlier key already is.
    void fail(std::string_view key);

    /// False when a value is bad or a flag is unknown.
    bool ok() const { return bad_key_.empty() && unknown_flag() == nullptr; }
    /// The first bad key ("" when none is).
    const std::string& bad_key() const { return bad_key_; }
    /// The first argument that starts with "--" and that nothing has asked
    /// about yet, or nullptr.
    const char* unknown_flag() const;

    /// Prints the first bad key or, failing that, the first unknown flag,
    /// and `text` to stderr; returns 2, the usage exit code.
    int usage(std::string_view text) const;

private:
    bool read_count(std::string_view key, std::size_t max, std::size_t& v);

    std::vector<const char*> args_;  ///< argv without the program name.
    std::vector<std::string_view> positional_names_;
    std::vector<std::string> asked_;  ///< Every key asked about.
    std::string bad_key_;
};

}  // namespace mrlg
