#pragma once

/// \file config.hpp
/// The one reader of run settings shared by benches and examples: a strict
/// value parser, environment reads (DDP_FULL, DDP_SEED, DDP_TRIALS,
/// DDP_JOBS) and a "key=value" command-line reader, so every binary accepts
/// the same syntax and refuses what it cannot honour instead of running
/// defaults.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace ddp::util {

/// Largest worker count accepted from `--jobs`, `jobs=` or DDP_JOBS.
inline constexpr unsigned kMaxJobs = 256;

/// The boolean vocabulary, case-insensitive: 1/0, true/false, yes/no,
/// on/off. nullopt for anything else.
std::optional<bool> parse_bool(std::string_view text) noexcept;

/// `text` parsed as a whole T within [lo, hi]: integers are base-10 whole
/// numbers that fit T (no sign on unsigned types, no '+', no spaces),
/// reals are finite, booleans come from parse_bool. nullopt otherwise.
template <class T>
  requires std::is_arithmetic_v<T>
std::optional<T> parse(
    std::string_view text,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T v{};
  if constexpr (std::is_same_v<T, bool>) {
    const auto b = parse_bool(text);
    if (!b) return std::nullopt;
    v = *b;
  } else {
    const char* const last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc{} || end != last) return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(v)) return std::nullopt;
    }
  }
  if (v < lo || hi < v) return std::nullopt;
  return v;
}

/// What parse<T>(·, lo, hi) accepts, for messages: "an integer in [0, 255]",
/// "a finite number", "one of 1/0, true/false, yes/no, on/off".
template <class T>
  requires std::is_arithmetic_v<T>
std::string accepted(T lo, T hi) {
  if constexpr (std::is_same_v<T, bool>) {
    return "one of 1/0, true/false, yes/no, on/off";
  } else if constexpr (std::is_integral_v<T>) {
    return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]";
  } else if (lo == std::numeric_limits<T>::lowest() &&
             hi == std::numeric_limits<T>::max()) {
    return "a finite number";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "a finite number in [%g, %g]",
                  static_cast<double>(lo), static_cast<double>(hi));
    return buf;
  }
}

/// "<name> must be <what>, got '<text>'".
std::string rejection(std::string_view name, std::string_view what,
                      std::string_view text);

/// Prints "<program>: invalid configuration: <problem>" on stderr unless
/// `problem` is empty; true when it printed (the caller then exits 2).
bool refuse(std::string_view program, const std::string& problem);

/// Environment variable `name` read like an option value: `fallback` when
/// it is unset or empty, else a whole T in [lo, hi]. A malformed or
/// out-of-range value returns `fallback` and, unless `problem` already
/// holds one, stores a message there naming the variable and its range.
template <class T>
  requires std::is_arithmetic_v<T>
T env(const char* name, T fallback, std::string& problem,
      std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  if (const auto v = parse<T>(text, lo, hi)) return *v;
  if (problem.empty()) problem = rejection(name, accepted<T>(lo, hi), text);
  return fallback;
}

/// The "key=value" arguments of one command line. Every read names its
/// key and marks it used; the binary then asks error() for the first
/// argument it could not honour and exits before doing any work. An
/// argument not in key=value shape is positional. A key given twice takes
/// its last value.
class Options {
 public:
  Options(int argc, const char* const* argv);

  /// `key` as a whole T within [lo, hi] (T's own range by default), or
  /// `fallback` when the key is absent. A malformed or out-of-range value
  /// also returns `fallback`, and error() reports it.
  template <class T>
    requires std::is_arithmetic_v<T>
  T get(std::string_view key, T fallback,
        std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
        std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    const std::string* text = lookup(key);
    if (text == nullptr) return fallback;
    if (const auto v = parse<T>(*text, lo, hi)) return *v;
    if (problem_.empty()) problem_ = rejection(key, accepted<T>(lo, hi), *text);
    return fallback;
  }

  /// A comma-separated list of T within [lo, hi]; empty items are skipped,
  /// so an empty value is an empty list.
  template <class T>
    requires std::is_arithmetic_v<T>
  std::vector<T> get(
      std::string_view key, std::vector<T> fallback,
      std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    const std::string* text = lookup(key);
    if (text == nullptr) return fallback;
    std::vector<T> out;
    std::string_view rest = *text;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view item = rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view{}
                                             : rest.substr(comma + 1);
      if (item.empty()) continue;
      const auto v = parse<T>(item, lo, hi);
      if (!v) {
        if (problem_.empty()) {
          problem_ = rejection(key, "a comma-separated list, each " +
                                        accepted<T>(lo, hi), *text);
        }
        return fallback;
      }
      out.push_back(*v);
    }
    return out;
  }

  /// An enumerator named by `name`, the enum's one name function, which
  /// must return "?" for the first value past the last enumerator.
  template <class E, class Name>
    requires std::is_enum_v<E>
  E get(std::string_view key, E fallback, Name name) {
    const std::string* text = lookup(key);
    if (text == nullptr) return fallback;
    std::string names;
    using U = std::underlying_type_t<E>;
    for (U u = 0; u < std::numeric_limits<U>::max(); ++u) {
      const std::string_view n = name(static_cast<E>(u));
      if (n == "?") break;
      if (n == *text) return static_cast<E>(u);
      names += names.empty() ? "one of " : ", ";
      names += n;
    }
    if (problem_.empty()) problem_ = rejection(key, names, *text);
    return fallback;
  }

  /// `key` verbatim (any value, the empty one included).
  std::string get(std::string_view key, std::string fallback);

  /// The i-th positional argument, marked used; `fallback` when absent.
  std::string positional(std::size_t i, std::string fallback = {});

  /// The first argument the reads could not honour, or "" when there is
  /// none: a malformed or out-of-range value (in read order), else a key
  /// that was never read, else a positional argument that was never read.
  /// Call it after the last read.
  std::string error() const;

  /// Render "key=value ..." for run provenance lines.
  std::string summary() const;

 private:
  /// Marks `key` read; its value, or nullptr when absent.
  const std::string* lookup(std::string_view key);

  std::map<std::string, std::string, std::less<>> kv_;
  std::set<std::string, std::less<>> read_;
  std::vector<std::pair<std::string, bool>> positional_;  // (arg, read)
  std::string problem_;  ///< the first malformed value read
};

}  // namespace ddp::util
