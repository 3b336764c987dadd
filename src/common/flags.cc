#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace spca {

void FlagSet::Add(std::string name, bool takes_value, Setter set) {
  SPCA_CHECK(Find(name) == flags_.size());
  flags_.push_back(Flag{std::move(name), takes_value, std::move(set)});
}

size_t FlagSet::Find(std::string_view name) const {
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (flags_[i].name == name) return i;
  }
  return flags_.size();
}

void FlagSet::Bool(std::string name, bool* out) {
  Add(std::move(name), false, [out](std::string_view) {
    *out = true;
    return std::string();
  });
}

void FlagSet::String(std::string name, std::string* out) {
  Add(std::move(name), true, [out](std::string_view text) {
    *out = std::string(text);
    return std::string();
  });
}

void FlagSet::Strings(std::string name, std::vector<std::string>* out) {
  Add(std::move(name), true, [out](std::string_view text) {
    out->emplace_back(text);
    return std::string();
  });
}

void FlagSet::Double(std::string name, double* out) {
  Add(std::move(name), true, [out](std::string_view text) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
      return std::string("expects a finite number");
    }
    *out = value;
    return std::string();
  });
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  for (Flag& flag : flags_) flag.seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const size_t index = Find(name);
    if (index == flags_.size()) {
      return Status::InvalidArgument("unknown flag " + name);
    }
    Flag& flag = flags_[index];
    std::string_view value;
    if (eq != std::string_view::npos) {
      if (!flag.takes_value) {
        return Status::InvalidArgument(name + " does not take a value");
      }
      value = arg.substr(eq + 1);
    } else if (flag.takes_value) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(name + " needs a value");
      }
      value = argv[++i];
    }
    if (flag.takes_value && value.empty()) {
      return Status::InvalidArgument(name + " needs a non-empty value");
    }
    if (const std::string reason = flag.set(value); !reason.empty()) {
      return Status::InvalidArgument(name + " " + reason + ", got '" +
                                     std::string(value) + "'");
    }
    flag.seen = true;
  }
  return Status::Ok();
}

bool FlagSet::Seen(std::string_view name) const {
  const size_t index = Find(name);
  SPCA_CHECK(index < flags_.size());
  return flags_[index].seen;
}

int FlagError(const Status& status, const char* usage) {
  std::fprintf(stderr, "error: %s\n%s", status.message().c_str(), usage);
  return 2;
}

}  // namespace spca
