#include "lab/args.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include "lab/experiment.hpp"

namespace impact::lab {

namespace {

bool declares_param(const ExperimentSpec& spec, std::string_view name) {
  for (const ParamSpec& p : spec.params) {
    if (p.name == name) return true;
  }
  return false;
}

/// Splits "--flag=value" in place; returns true when an '=' was present.
bool split_eq(std::string_view arg, std::string_view& flag,
              std::string_view& value) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string_view::npos) {
    flag = arg;
    return false;
  }
  flag = arg.substr(0, eq);
  value = arg.substr(eq + 1);
  return true;
}

}  // namespace

bool parse_args(const ExperimentSpec& spec, int argc, const char* const* argv,
                Args& out, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg.substr(0, 2) != "--") {
      if (spec.accepts_extra_args) {
        out.extra.emplace_back(arg);
        continue;
      }
      error = "unexpected argument '" + std::string(arg) + "'";
      return false;
    }

    std::string_view flag;
    std::string_view inline_value;
    const bool has_inline = split_eq(arg, flag, inline_value);
    // Fetches the flag's value: the "=..." part if present, else the
    // next argv entry.
    const auto take_value = [&](std::string_view& value) {
      if (has_inline) {
        value = inline_value;
        return true;
      }
      if (i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      error = "flag '" + std::string(flag) + "' expects a value";
      return false;
    };

    if (flag == "--smoke" && !has_inline) {
      out.smoke = true;
    } else if (flag == "--threads") {
      std::string_view value;
      if (!take_value(value)) return false;
      char* end = nullptr;
      const std::string text(value);
      const unsigned long v = std::strtoul(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || v == 0 || v > 256) {
        error = "--threads expects an integer in [1, 256], got '" + text + "'";
        return false;
      }
      out.threads = static_cast<unsigned>(v);
    } else if (flag == "--param") {
      std::string_view value;
      if (!take_value(value)) return false;
      const std::size_t eq = value.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        error = "--param expects name=value, got '" + std::string(value) + "'";
        return false;
      }
      const std::string_view name = value.substr(0, eq);
      if (!declares_param(spec, name)) {
        error = "experiment '" + spec.name + "' declares no parameter '" +
                std::string(name) + "'";
        return false;
      }
      out.params[std::string(name)] = std::string(value.substr(eq + 1));
    } else if (flag.size() > 2 && declares_param(spec, flag.substr(2))) {
      std::string_view value;
      if (!take_value(value)) return false;
      out.params[std::string(flag.substr(2))] = std::string(value);
    } else if (spec.accepts_extra_args) {
      out.extra.emplace_back(arg);
    } else {
      error = "unknown flag '" + std::string(arg) + "' for experiment '" +
              spec.name + "'";
      return false;
    }
  }
  return true;
}

}  // namespace impact::lab
