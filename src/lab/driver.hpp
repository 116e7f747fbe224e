// Driver: the one front end for every experiment.
//
// impact_main() is the `impact` multiplexer: `impact list [--json]
// [--filter S]`, `impact describe <name>`, `impact run <name> [--smoke]
// [--param k=v] ...` — look the spec up in the built-in registry, parse
// argv against its schema, wire a Context, run it. The whole evaluation
// matrix is runnable from this single process.
#pragma once

namespace impact::lab {

/// The `impact` multiplexer entry point.
int impact_main(int argc, const char* const* argv);

}  // namespace impact::lab
