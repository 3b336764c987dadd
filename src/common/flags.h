#ifndef SPCA_COMMON_FLAGS_H_
#define SPCA_COMMON_FLAGS_H_

#include <charconv>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace spca {

/// The command-line flag layer shared by every tool and bench. A program
/// binds each flag once, as a row tying its name to a typed field that
/// already holds the default, then calls Parse:
///
///   FlagSet flags;
///   flags.Int("--rows", &options.rows, size_t{1});
///   flags.Double("--target", &options.target);
///   if (Status s = flags.Parse(argc, argv); !s.ok()) ...
///
/// Both "--flag value" and "--flag=value" are accepted; a value keeps
/// everything after the first '=' ("--model=a=b.spcm" binds "a=b.spcm").
/// Parsing is strict: an unknown flag, a missing or empty value, "=value"
/// on a bare flag, or a value whose whole token does not parse as the
/// field's type (an out-of-range integer, a minus sign on an unsigned
/// field, a non-finite double) is an InvalidArgument naming the flag. A
/// flag given twice keeps its last value, except a repeated string flag,
/// which collects every value in order. Bound fields must outlive Parse.
class FlagSet {
 public:
  /// A bare flag: its presence sets *out to true.
  void Bool(std::string name, bool* out);
  void String(std::string name, std::string* out);
  /// A repeatable flag: each occurrence appends its value to *out.
  void Strings(std::string name, std::vector<std::string>* out);
  /// A signed or unsigned integer no smaller than `min`.
  template <typename T>
  void Int(std::string name, T* out, T min = std::numeric_limits<T>::lowest());
  /// A finite double.
  void Double(std::string name, double* out);

  /// Binds argv[1..argc) to the declared fields; stops at the first error.
  Status Parse(int argc, const char* const* argv);

  /// True when the last Parse set the declared flag `name`.
  bool Seen(std::string_view name) const;

 private:
  /// Stores a parsed value, or returns why it does not parse: the
  /// predicate of "<flag> <reason>, got '<value>'".
  using Setter = std::function<std::string(std::string_view)>;
  struct Flag {
    std::string name;
    bool takes_value = true;
    Setter set;
    bool seen = false;
  };
  void Add(std::string name, bool takes_value, Setter set);
  /// Index of the flag called `name`, or flags_.size() when none is.
  size_t Find(std::string_view name) const;

  std::vector<Flag> flags_;
};

/// The one exit path for bad flags: prints "error: <message>" and `usage`
/// to stderr and returns exit status 2.
int FlagError(const Status& status, const char* usage);

template <typename T>
void FlagSet::Int(std::string name, T* out, T min) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  Add(std::move(name), true, [out, min](std::string_view text) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    std::string reason;
    if (ec == std::errc::result_out_of_range) {
      reason = "is out of range";
    } else if (ec != std::errc() || ptr != end) {
      reason = std::is_signed_v<T> ? "expects an integer"
                                   : "expects a non-negative integer";
    } else if (value < min) {
      reason = "must be >= " + std::to_string(min);
    } else {
      *out = value;
    }
    return reason;
  });
}

}  // namespace spca

#endif  // SPCA_COMMON_FLAGS_H_
