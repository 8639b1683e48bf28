// Strict `--flag value` CLI parsing, shared by the bench executables and
// sorn_tool.
//
// Before this helper each binary hand-rolled atoi/atof loops that silently
// accepted garbage ("--slots 20k" ran with 20 slots; unknown flags were
// ignored). ArgParser validates every value as a whole token,
// range-checks it, and rejects unknown flags, exiting with status 2 (the
// established usage-error code) and a message naming the offending flag.
//
// Usage:
//   sorn::ArgParser args(argc, argv);            // or (argc, argv, first)
//   const std::string json = args.get_string("--json", "");
//   const long slots = args.get_long("--slots", 20000, 1);
//   const double rss = args.get_double("--max-rss-mb", 0.0, 0.0);
//   const std::vector<int> nc = args.get_int_list("--nc", {}, 1);
//   const bool weighted = args.get_flag("--weighted");
//   args.finish();  // rejects anything not consumed above
//
// Header-only; the consumers are leaf executables.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sorn {

class ArgParser {
 public:
  // Arguments from argv[first..); first defaults to 1 (skip the program
  // name). Subcommand-style tools pass first = 2.
  ArgParser(int argc, char** argv, int first = 1)
      : prog_(argc > 0 ? argv[0] : "bench") {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
    used_.assign(args_.size(), false);
  }

  // `--flag value`, or nullopt when the flag is absent.
  std::optional<std::string> get_optional(const char* flag) {
    const int i = find(flag);
    if (i < 0) return std::nullopt;
    return value_of(i);
  }

  // `--flag value`; empty-string fallback means "not given" by convention.
  std::string get_string(const char* flag, std::string fallback) {
    return get_optional(flag).value_or(std::move(fallback));
  }

  // Valueless boolean flag: present -> true.
  bool get_flag(const char* flag) { return find(flag) >= 0; }

  // True when the flag was given (and consumes nothing extra); pairs with
  // a get_* call for "was this explicitly set" logic.
  bool has(const char* flag) const {
    for (std::size_t i = 0; i < args_.size(); ++i)
      if (args_[i] == flag) return true;
    return false;
  }

  long get_long(const char* flag, long fallback,
                long lo = std::numeric_limits<long>::min(),
                long hi = std::numeric_limits<long>::max()) {
    const int i = find(flag);
    if (i < 0) return fallback;
    const std::string v = value_of(i);
    char* end = nullptr;
    const long parsed = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
      die(flag, v, "an integer");
    if (parsed < lo || parsed > hi) die_range(flag, v, lo, hi);
    return parsed;
  }

  double get_double(const char* flag, double fallback,
                    double lo = -std::numeric_limits<double>::infinity(),
                    double hi = std::numeric_limits<double>::infinity()) {
    const int i = find(flag);
    if (i < 0) return fallback;
    const std::string v = value_of(i);
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') die(flag, v, "a number");
    if (parsed < lo || parsed > hi) {
      std::fprintf(stderr, "%s: %s must be in [%g, %g] (got %s)\n",
                   prog_.c_str(), flag, lo, hi, v.c_str());
      std::exit(2);
    }
    return parsed;
  }

  // Comma-separated integers, each range-checked.
  std::vector<int> get_int_list(const char* flag, std::vector<int> fallback,
                                long lo = std::numeric_limits<int>::min(),
                                long hi = std::numeric_limits<int>::max()) {
    const int i = find(flag);
    if (i < 0) return fallback;
    const std::string v = value_of(i);
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos <= v.size()) {
      std::size_t comma = v.find(',', pos);
      if (comma == std::string::npos) comma = v.size();
      const std::string item = v.substr(pos, comma - pos);
      char* end = nullptr;
      const long parsed = std::strtol(item.c_str(), &end, 10);
      if (item.empty() || end == item.c_str() || *end != '\0')
        die(flag, v, "a comma-separated integer list");
      if (parsed < lo || parsed > hi) die_range(flag, item, lo, hi);
      out.push_back(static_cast<int>(parsed));
      pos = comma + 1;
    }
    return out;
  }

  // Call after all getters: any argument not consumed is an unknown flag
  // (or a stray value) and aborts with a usage error.
  void finish() {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (used_[i]) continue;
      std::fprintf(stderr, "%s: unknown or misplaced argument '%s'\n",
                   prog_.c_str(), args_[i].c_str());
      std::exit(2);
    }
  }

 private:
  int find(const char* flag) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (used_[i] || args_[i] != flag) continue;
      used_[i] = true;
      return static_cast<int>(i);
    }
    return -1;
  }

  std::string value_of(int flag_index) {
    const auto v = static_cast<std::size_t>(flag_index) + 1;
    if (v >= args_.size() || used_[v]) {
      std::fprintf(stderr, "%s: missing value for %s\n", prog_.c_str(),
                   args_[static_cast<std::size_t>(flag_index)].c_str());
      std::exit(2);
    }
    used_[v] = true;
    return args_[v];
  }

  [[noreturn]] void die(const char* flag, const std::string& got,
                        const char* wanted) {
    std::fprintf(stderr, "%s: %s expects %s (got '%s')\n", prog_.c_str(),
                 flag, wanted, got.c_str());
    std::exit(2);
  }

  [[noreturn]] void die_range(const char* flag, const std::string& got,
                              long lo, long hi) {
    std::fprintf(stderr, "%s: %s must be in [%ld, %ld] (got %s)\n",
                 prog_.c_str(), flag, lo, hi, got.c_str());
    std::exit(2);
  }

  std::string prog_;
  std::vector<std::string> args_;
  std::vector<bool> used_;
};

}  // namespace sorn
