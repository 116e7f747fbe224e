// simlint CLI. Exit codes: 0 clean, 1 non-baseline findings, 2 usage/IO.
//
//   simlint --root src [--root apps ...]
//           [--baseline tools/simlint/baseline.txt]
//           [--write-baseline FILE] [--rules nondet-*,layering] [--json]
//
// Typical invocations (both run by ctest and the tools/check.sh lint
// stage; `cmake --build build --target simlint` runs them standalone):
//
//   simlint --root src --baseline tools/simlint/baseline.txt
//   simlint --root apps --rules 'nondet-*,driver-include'
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "simlint.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --root DIR [--root DIR...] [--baseline FILE]\n"
               "          [--write-baseline FILE] [--rules R1,R2] [--json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  simlint::Options options;
  std::string baseline_path;
  std::string write_baseline_path;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.roots.emplace_back(v);
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      write_baseline_path = v;
    } else if (arg == "--rules") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      std::string rules = v;
      std::size_t pos = 0;
      while (pos <= rules.size()) {
        const std::size_t comma = rules.find(',', pos);
        const std::string rule =
            rules.substr(pos, (comma == std::string::npos) ? std::string::npos
                                                           : comma - pos);
        if (!rule.empty()) options.rules.push_back(rule);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "simlint: unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (options.roots.empty()) return usage(argv[0]);

  std::vector<simlint::Finding> findings = simlint::analyze(options);

  if (!write_baseline_path.empty()) {
    simlint::write_baseline(write_baseline_path, findings);
    std::fprintf(stderr, "simlint: wrote %zu finding(s) to %s\n",
                 findings.size(), write_baseline_path.c_str());
    return 0;
  }
  if (!baseline_path.empty()) {
    findings = simlint::filter_baseline(std::move(findings),
                                        simlint::load_baseline(baseline_path));
  }

  if (json) {
    std::cout << simlint::to_json(findings);
  } else {
    for (const auto& f : findings) {
      std::cout << f.location() << ": [" << f.rule << "] " << f.message
                << "\n";
    }
    if (!findings.empty()) {
      std::cout << "simlint: " << findings.size()
                << " finding(s) outside the baseline\n";
    }
  }
  return findings.empty() ? 0 : 1;
}
