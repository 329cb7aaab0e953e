#include "util/config.hpp"

#include <algorithm>
#include <cctype>

namespace ddp::util {

std::optional<bool> parse_bool(std::string_view text) noexcept {
  const auto is = [text](std::string_view word) {
    return std::equal(
        text.begin(), text.end(), word.begin(), word.end(),
        [](unsigned char c, char w) { return std::tolower(c) == w; });
  };
  if (is("1") || is("true") || is("yes") || is("on")) return true;
  if (is("0") || is("false") || is("no") || is("off")) return false;
  return std::nullopt;
}

std::string rejection(std::string_view name, std::string_view what,
                      std::string_view text) {
  std::string out(name);
  out += " must be ";
  out += what;
  out += ", got '";
  out += text;
  out += '\'';
  return out;
}

bool refuse(std::string_view program, const std::string& problem) {
  if (problem.empty()) return false;
  std::fprintf(stderr, "%.*s: invalid configuration: %s\n",
               static_cast<int>(program.size()), program.data(),
               problem.c_str());
  return true;
}

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      positional_.emplace_back(arg, false);
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

const std::string* Options::lookup(std::string_view key) {
  read_.emplace(key);
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

std::string Options::get(std::string_view key, std::string fallback) {
  const std::string* text = lookup(key);
  return text == nullptr ? fallback : *text;
}

std::string Options::positional(std::size_t i, std::string fallback) {
  if (i >= positional_.size()) return fallback;
  positional_[i].second = true;
  return positional_[i].first;
}

std::string Options::error() const {
  if (!problem_.empty()) return problem_;
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) != 0) continue;
    std::string known;
    for (const auto& k : read_) known += (known.empty() ? "" : ", ") + k;
    return "unknown key '" + key + "' (known keys: " + known + ")";
  }
  for (const auto& [arg, read] : positional_) {
    if (!read) {
      return "unexpected argument '" + arg + "' (arguments are key=value)";
    }
  }
  return {};
}

std::string Options::summary() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    out += (out.empty() ? "" : " ") + k + '=' + v;
  }
  return out;
}

}  // namespace ddp::util
