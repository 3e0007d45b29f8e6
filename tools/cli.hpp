// Shared command-line parsing for the tools/ binaries (run_network,
// serve_sim, swatop_report, fuzz_schedules).
//
// Everything here is *strict*: a numeric token must parse in its entirety
// ("4abc" and "" are errors, not 4 and 0), ranges are checked at the parse
// site, and every failure exits with status 2 after printing a clear
// message plus the tool's usage text. Tools share this so their flag
// behaviour -- and their failure behaviour -- stays uniform.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

namespace swatop::cli {

/// Strict base-10 integer parse: the whole token must be consumed and in
/// range. Returns false on any malformation ("", "12x", overflow).
inline bool parse_int64(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Strict finite-double parse: whole token, no NaN/Inf spellings.
inline bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() ||
      !(v <= std::numeric_limits<double>::max() &&
        v >= std::numeric_limits<double>::lowest()))
    return false;
  *out = v;
  return true;
}

/// Argument cursor over argv with fail-fast helpers. Typical shape:
///
///   Args args(argc, argv, usage);
///   const std::string net = args.pop("network name");
///   const std::int64_t batch = args.int64("batch", args.pop("batch"), 1);
///   while (args.more()) {
///     const std::string a = args.pop("option");
///     if (a == "--groups") groups = (int)args.int64(a, args.value(a), 1, 4);
///     else args.fail("unknown option '" + a + "'");
///   }
class Args {
 public:
  using UsageFn = void (*)();

  Args(int argc, char** argv, UsageFn usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Print "error: <msg>", the usage text, and exit 2.
  [[noreturn]] void fail(const std::string& msg) const {
    std::cerr << "error: " << msg << "\n";
    if (usage_ != nullptr) usage_();
    std::exit(2);
  }

  bool more() const { return i_ < argc_; }

  /// Next raw token; missing => usage error naming what was expected.
  std::string pop(const std::string& what) {
    if (i_ >= argc_) fail("missing " + what);
    return argv_[i_++];
  }

  /// The value token of a `--flag VALUE` pair.
  std::string value(const std::string& flag) {
    if (i_ >= argc_) fail("missing value for " + flag);
    return argv_[i_++];
  }

  /// Strictly parse `tok` as an integer in [lo, hi]; `what` names it in
  /// the error message ("--groups", "batch").
  std::int64_t int64(const std::string& what, const std::string& tok,
                     std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                     std::int64_t hi = std::numeric_limits<std::int64_t>::max())
      const {
    std::int64_t v = 0;
    if (!parse_int64(tok, &v))
      fail("invalid integer '" + tok + "' for " + what);
    if (v < lo || v > hi)
      fail(what + " = " + tok + " out of range [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]");
    return v;
  }

  /// Strictly parse `tok` as a finite double, optionally requiring > lo.
  double real(const std::string& what, const std::string& tok,
              bool require_positive = false) const {
    double v = 0.0;
    if (!parse_double(tok, &v))
      fail("invalid number '" + tok + "' for " + what);
    if (require_positive && !(v > 0.0))
      fail(what + " must be positive, got " + tok);
    return v;
  }

 private:
  int argc_;
  char** argv_;
  UsageFn usage_;
  int i_ = 1;  ///< argv[0] is the program name
};

}  // namespace swatop::cli
