#include "util/cli.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "util/str.hpp"

namespace mrlg {

Flags::Flags(int argc, const char* const* argv,
             std::vector<std::string_view> positional_names)
    : args_(argv + std::min(argc, 1), argv + argc),
      positional_names_(std::move(positional_names)) {}

bool Flags::has(std::string_view key) {
    asked_.emplace_back(key);
    return std::ranges::find(args_, key) != args_.end();
}

const char* Flags::value(std::string_view key) {
    asked_.emplace_back(key);
    const auto name = std::ranges::find(positional_names_, key);
    if (name != positional_names_.end()) {
        return positional(
            static_cast<std::size_t>(name - positional_names_.begin()));
    }
    const auto it = std::ranges::find(args_, key);
    if (it == args_.end()) {
        return nullptr;
    }
    if (it + 1 == args_.end()) {
        fail(key);
        return nullptr;
    }
    return *(it + 1);
}

const char* Flags::positional(std::size_t index) const {
    for (std::size_t i = 0; i <= index; ++i) {
        if (i == args_.size() || starts_with(args_[i], "--")) {
            return nullptr;
        }
    }
    return args_[index];
}

bool Flags::read_count(std::string_view key, std::size_t max,
                       std::size_t& v) {
    const char* text = value(key);
    if (text != nullptr && (!parse_count(text, v) || v > max)) {
        fail(key);
        return false;
    }
    return text != nullptr;
}

void Flags::real(std::string_view key, double& out, double lo, double hi,
                 Upper upper) {
    const char* text = value(key);
    double v = 0.0;
    if (text == nullptr) {
        return;
    }
    // NaN fails every comparison, so it is out of range too.
    if (parse_double(text, v) && v > lo &&
        (upper == Upper::kClosed ? v <= hi : v < hi)) {
        out = v;
    } else {
        fail(key);
    }
}

void Flags::int_list(std::string_view key, std::vector<int>& out) {
    const char* text = value(key);
    if (text == nullptr) {
        return;
    }
    std::vector<int> list;
    for (const std::string_view tok : split(text, ',')) {
        std::size_t v = 0;
        if (!parse_count(tok, v) || v == 0 ||
            v > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
            fail(key);
            return;
        }
        list.push_back(static_cast<int>(v));
    }
    out = std::move(list);
}

void Flags::fail(std::string_view key) {
    if (bad_key_.empty()) {
        bad_key_ = key;
    }
}

const char* Flags::unknown_flag() const {
    for (const char* arg : args_) {
        if (starts_with(arg, "--") &&
            std::ranges::find(asked_, std::string_view(arg)) ==
                asked_.end()) {
            return arg;
        }
    }
    return nullptr;
}

int Flags::usage(std::string_view text) const {
    if (!bad_key_.empty()) {
        std::cerr << "invalid or missing " << bad_key_ << "\n";
    } else if (const char* flag = unknown_flag()) {
        std::cerr << "unknown flag " << flag << "\n";
    }
    std::cerr << text;
    return 2;
}

}  // namespace mrlg
