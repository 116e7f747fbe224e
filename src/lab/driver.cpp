#include "lab/driver.hpp"

#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "lab/args.hpp"
#include "lab/context.hpp"
#include "lab/registry.hpp"
#include "util/json.hpp"

namespace impact::lab {

namespace {

int run_spec(const ExperimentSpec& spec, int argc, const char* const* argv) {
  Args args;
  std::string error;
  if (!parse_args(spec, argc, argv, args, error)) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), error.c_str());
    return 2;
  }
  try {
    Context ctx(spec, std::move(args));
    return spec.run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), e.what());
    return 1;
  }
}

int cmd_list(const Registry& registry, int argc, const char* const* argv) {
  bool json = false;
  std::string filter;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else {
      std::fprintf(stderr, "impact list: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  bool first = true;
  if (json) std::printf("{\"experiments\":[");
  for (const ExperimentSpec* spec : registry.all()) {
    if (!filter.empty() && spec->name.find(filter) == std::string::npos) {
      continue;
    }
    if (json) {
      std::printf("%s{\"name\":\"%s\",\"kind\":\"%s\","
                  "\"bench_role\":\"%s\",\"description\":\"%s\"}",
                  first ? "" : ",", util::json_escape(spec->name).c_str(),
                  kind_name(spec->kind),
                  util::json_escape(spec->bench_role).c_str(),
                  util::json_escape(spec->description).c_str());
    } else {
      std::printf("%-26s %-9s %s\n", spec->name.c_str(),
                  kind_name(spec->kind), spec->description.c_str());
    }
    first = false;
  }
  if (json) std::printf("]}\n");
  return 0;
}

int cmd_describe(const Registry& registry, const ExperimentSpec& spec) {
  (void)registry;
  std::printf("name:        %s\n", spec.name.c_str());
  std::printf("kind:        %s\n", kind_name(spec.kind));
  std::printf("description: %s\n", spec.description.c_str());
  if (spec.cell_count) {
    Context full(spec, Args{});
    Args smoke_args;
    smoke_args.smoke = true;
    Context smoke(spec, smoke_args);
    std::printf("cells:       %zu (%zu in --smoke)\n", spec.cell_count(full),
                spec.cell_count(smoke));
  }
  if (!spec.params.empty()) {
    std::printf("parameters:\n");
    for (const ParamSpec& p : spec.params) {
      std::printf("  --%s <v>   default %s — %s\n", p.name.c_str(),
                  p.default_value.c_str(), p.description.c_str());
    }
  }
  std::printf("run:         impact run %s [--smoke] [--threads N] "
              "[--param k=v]\n",
              spec.name.c_str());
  return 0;
}

void print_usage() {
  std::fprintf(stderr,
               "usage: impact list [--json] [--filter S]\n"
               "       impact describe <name>\n"
               "       impact run <name> [--smoke] [--threads N] "
               "[--param k=v] [args...]\n");
}

}  // namespace

int impact_main(int argc, const char* const* argv) {
  Registry registry;
  register_builtin(registry);
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string_view cmd = argv[1];
  if (cmd == "list") {
    return cmd_list(registry, argc - 2, argv + 2);
  }
  if (cmd == "describe" || cmd == "run") {
    if (argc < 3) {
      std::fprintf(stderr, "impact %.*s: experiment name required\n",
                   static_cast<int>(cmd.size()), cmd.data());
      print_usage();
      return 2;
    }
    const ExperimentSpec* spec = registry.find(argv[2]);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "unknown experiment '%s' (see `impact list`)\n", argv[2]);
      return 2;
    }
    if (cmd == "describe") return cmd_describe(registry, *spec);
    // `impact run <name> args...` — hand the spec argv[3..] as its own
    // argv tail (run_spec parses from index 1, so point one before).
    return run_spec(*spec, argc - 2, argv + 2);
  }
  std::fprintf(stderr, "impact: unknown command '%s'\n", argv[1]);
  print_usage();
  return 2;
}

}  // namespace impact::lab
