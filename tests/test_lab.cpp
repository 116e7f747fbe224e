// The lab layer: registry catalogue and duplicate rejection, the shared
// argv vocabulary (parse_args), parameter override resolution through
// Context, renderer golden byte-identity against synthetic grids (the
// rendering half of the old drivers, pinned without simulating), and the
// cell-count pins `impact describe` reports.
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "lab/args.hpp"
#include "lab/context.hpp"
#include "lab/driver.hpp"
#include "lab/experiments.hpp"
#include "lab/registry.hpp"
#include "util/rng.hpp"

namespace {

using impact::lab::Args;
using impact::lab::Context;
using impact::lab::ExperimentSpec;
using impact::lab::Kind;
using impact::lab::Registry;
using impact::lab::parse_args;

/// One shared built-in catalogue: registration is pure, the registry is
/// immutable after construction.
const Registry& builtin() {
  static const Registry* const kRegistry = [] {
    auto* r = new Registry;
    impact::lab::register_builtin(*r);
    return r;
  }();
  return *kRegistry;
}

/// A minimal spec for argv tests: one declared parameter.
ExperimentSpec toy_spec() {
  ExperimentSpec spec;
  spec.name = "toy";
  spec.description = "argv fixture";
  spec.params = {{"banks", "bank count", "1024"}};
  spec.run = [](Context&) { return 0; };
  return spec;
}

TEST(LabRegistry, BuiltinCatalogueIsCompleteAndSorted) {
  EXPECT_EQ(builtin().size(), 22u);
  const auto all = builtin().all();
  ASSERT_EQ(all.size(), 22u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
  for (const auto* spec : all) {
    EXPECT_FALSE(spec->description.empty()) << spec->name;
    EXPECT_TRUE(spec->run) << spec->name;
  }
}

TEST(LabRegistry, FindResolvesNames) {
  const ExperimentSpec* fig11 = builtin().find("fig11");
  ASSERT_NE(fig11, nullptr);
  EXPECT_EQ(fig11->kind, Kind::kFigure);
  const ExperimentSpec* quickstart = builtin().find("quickstart");
  ASSERT_NE(quickstart, nullptr);
  EXPECT_EQ(quickstart->kind, Kind::kExample);
  EXPECT_EQ(builtin().find("no_such_experiment"), nullptr);
}

TEST(LabRegistry, RejectsDuplicateEmptyAndBodylessSpecs) {
  Registry r;
  r.add(toy_spec());
  EXPECT_THROW(r.add(toy_spec()), std::invalid_argument);

  ExperimentSpec unnamed = toy_spec();
  unnamed.name.clear();
  EXPECT_THROW(r.add(std::move(unnamed)), std::invalid_argument);

  ExperimentSpec bodyless = toy_spec();
  bodyless.name = "bodyless";
  bodyless.run = nullptr;
  EXPECT_THROW(r.add(std::move(bodyless)), std::invalid_argument);
  EXPECT_EQ(r.size(), 1u);
}

TEST(LabArgs, CommonFlagsParse) {
  const ExperimentSpec spec = toy_spec();
  const char* argv[] = {"toy", "--smoke", "--threads", "4"};
  Args args;
  std::string error;
  ASSERT_TRUE(parse_args(spec, 4, argv, args, error)) << error;
  EXPECT_TRUE(args.smoke);
  EXPECT_EQ(args.threads, 4u);
  EXPECT_TRUE(args.extra.empty());
}

TEST(LabArgs, UnknownFlagAndSurplusPositionalRejected) {
  const ExperimentSpec spec = toy_spec();
  Args args;
  std::string error;
  const char* unknown[] = {"toy", "--no-such-flag"};
  EXPECT_FALSE(parse_args(spec, 2, unknown, args, error));
  EXPECT_FALSE(error.empty());

  const char* surplus[] = {"toy", "64", "128"};
  error.clear();
  EXPECT_FALSE(parse_args(spec, 3, surplus, args, error));
  EXPECT_FALSE(error.empty());

  const char* undeclared[] = {"toy", "--param", "rows=3"};
  error.clear();
  EXPECT_FALSE(parse_args(spec, 3, undeclared, args, error));
  EXPECT_FALSE(error.empty());

  // --filter belongs to `impact list` only; a spec without extra args
  // rejects it rather than silently ignoring it.
  const char* filter[] = {"toy", "--filter", "x"};
  error.clear();
  EXPECT_FALSE(parse_args(spec, 3, filter, args, error));
  EXPECT_NE(error.find("unknown flag '--filter'"), std::string::npos)
      << error;

  // --json belongs to `impact list` only; `impact run` rejects it as an
  // unknown flag (exit 2) before the experiment starts.
  const char* json[] = {"toy", "--json"};
  error.clear();
  EXPECT_FALSE(parse_args(spec, 2, json, args, error));
  EXPECT_NE(error.find("unknown flag '--json'"), std::string::npos) << error;
  const char* run_json[] = {"impact", "run", "rowbuffer", "--json"};
  EXPECT_EQ(impact::lab::impact_main(4, run_json), 2);
}

// Deterministic fuzzing of parse_args over argv drawn from a token
// alphabet: every argv is either accepted with a thread count in range
// or rejected with an error message.
TEST(LabArgs, RandomArgvIsAcceptedInRangeOrRejectedWithAnError) {
  const ExperimentSpec toy = toy_spec();
  const ExperimentSpec* quickstart = builtin().find("quickstart");
  ASSERT_NE(quickstart, nullptr);  // Declares the `trace` parameter.
  const std::string_view kTokens[] = {
      "--threads", "--smoke", "--trace", "--filter", "--param", "--banks",
      "=",         "0",       "1",       "4",        "256",     "257",
      "-1",        "banks=8", "trace=x", "--",       "-",       "",
      "junk",      "99999999999999999999"};
  impact::util::Xoshiro256 rng(0xa9c5);
  const auto token = [&] { return kTokens[rng.below(std::size(kTokens))]; };
  std::size_t accepted = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::vector<std::string> words = {"impact"};
    const std::uint64_t count = rng.below(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string word(token());
      // Glue more tokens on sometimes: "--threads=257", "4junk", ...
      while (rng.below(3) == 0) word += token();
      words.push_back(std::move(word));
    }
    std::vector<const char*> argv;
    for (const std::string& w : words) argv.push_back(w.c_str());
    const ExperimentSpec& spec = rng.below(2) == 0 ? toy : *quickstart;
    Args args;
    std::string error;
    if (parse_args(spec, static_cast<int>(argv.size()), argv.data(), args,
                   error)) {
      ++accepted;
      EXPECT_LE(args.threads, 256u) << "iteration " << iteration;
    } else {
      EXPECT_FALSE(error.empty()) << "iteration " << iteration;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(LabContext, ParamOverrideRoundTrip) {
  const ExperimentSpec spec = toy_spec();

  {  // No override: the spec default resolves.
    Context ctx(spec, Args{});
    EXPECT_EQ(ctx.str("banks"), "1024");
  }
  for (const auto& argv : std::vector<std::vector<const char*>>{
           {"toy", "--param", "banks=64"},  // --param k=v
           {"toy", "--banks", "64"},        // declared-name flag
           {"toy", "--banks=64"},           // inline form
       }) {
    Args args;
    std::string error;
    ASSERT_TRUE(parse_args(spec, static_cast<int>(argv.size()),
                           argv.data(), args, error))
        << error;
    Context ctx(spec, std::move(args));
    EXPECT_EQ(ctx.str("banks"), "64");
  }
}

TEST(LabContext, UndeclaredParamsThrow) {
  const ExperimentSpec spec = toy_spec();
  Context ctx(spec, Args{});
  EXPECT_THROW((void)ctx.str("rows"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Renderer golden tests: the rendering half of a former driver, pinned
// byte-for-byte against a synthetic grid. A formatting regression (table
// widths, precision, the closing paragraphs) fails here without running
// a single simulation.

TEST(LabRender, Fig11GoldenBytes) {
  impact::store::CellRunner::MatrixResult grid;
  grid.cells.resize(5);
  for (std::size_t w = 0; w < 5; ++w) {
    grid.cells[w].resize(4);
    for (std::size_t p = 0; p < 4; ++p) {
      auto& cell = grid.cells[w][p];
      // Overheads come out at exactly 10*p percent for every workload.
      cell.stats.cycles = 1000 * (w + 1) + 100 * p * (w + 1);
      cell.stats.instructions = 1000000;
      cell.stats.accesses = 10000;
      cell.stats.llc_misses = 2500 * (w + 1);
      cell.stats.row_hit_rate = 0.5 + 0.05 * static_cast<double>(w);
    }
  }
  // Snapshots stay empty, so every row comes from the cells' RunStats and
  // the grid-totals section is skipped.
  const std::string golden =
      R"(| workload | MPKI  | row-hit rate | open-row (cyc) | CRP overhead | CTD overhead | adaptive overhead (ext.) |
|----------|-------|--------------|----------------|--------------|--------------|--------------------------|
| BC       |  2.50 |         0.50 |           1000 |        10.0% |        20.0% |                    30.0% |
| BFS      |  5.00 |         0.55 |           2000 |        10.0% |        20.0% |                    30.0% |
| CC       |  7.50 |         0.60 |           3000 |        10.0% |        20.0% |                    30.0% |
| TC       | 10.00 |         0.65 |           4000 |        10.0% |        20.0% |                    30.0% |
| PR       | 12.50 |         0.70 |           5000 |        10.0% |        20.0% |                    30.0% |

average: CRP 10.0% (paper 15%), CTD 20.0% (paper 26%), adaptive 30.0% (extension)
The adaptive open-page policy costs about as much as CRP on these
conflict-heavy workloads and pushes the naive covert channel to
near-chance error (test_defense AdaptivePolicy tests). It keeps few of
the open row's benign hits: its row-hit rate is under a tenth of
open-row's (test_headline_numbers Headline.AdaptiveTracksCrpOnCc).
Unlike CRP, its guarantee is heuristic: an attacker who re-trains the
predictor with hit bursts can partially reopen the channel.
)";
  EXPECT_EQ(impact::lab::render_fig11(grid), golden);
}

TEST(LabRender, AblationFaultsGoldenBytes) {
  const std::vector<std::vector<std::string>> rows = {
      {"0.0", "1.00%", "0", "3.00 Mb/s", "2", "4.00 Mb/s", "1", "0.000%"},
      {"4.0", "12.50%", "7", "1.50 Mb/s", "9", "2.25 Mb/s", "5", "0.391%"},
  };
  const std::string golden =
      R"(| fault scale | raw error | H(7,4) residual | framed goodput | framed retx | framed+H74 goodput | framed+H74 retx | residual BER |
|-------------|-----------|-----------------|----------------|-------------|--------------------|-----------------|--------------|
|         0.0 |     1.00% |               0 | 3.00 Mb/s      |           2 | 4.00 Mb/s          |               1 |       0.000% |
|         4.0 |    12.50% |               7 | 1.50 Mb/s      |           9 | 2.25 Mb/s          |               5 |       0.391% |

Coding alone leaves residual errors once faults cluster; framing
alone recovers everything but pays a retransmission per corrupted
frame; the inner code under the framed layer absorbs isolated flips
and keeps the retry budget for the bursts.
)";
  EXPECT_EQ(impact::lab::render_ablation_faults(rows), golden);
}

// grid_perf runs the Fig. 11 grid cold serial, cold on a pool and warm
// twice from the cache; every phase must match the serial reference
// byte for byte, and both warm phases must be pure cache hits.
TEST(LabGridPerf, SmokeRunIsBitIdenticalAndFullyWarm) {
  const char* argv[] = {"impact", "run", "grid_perf", "--smoke", "--threads",
                        "2"};
  testing::internal::CaptureStdout();
  const int rc = impact::lab::impact_main(6, argv);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.find('\n'), out.size() - 1) << "one JSON line: " << out;
  EXPECT_NE(out.find(R"("cells_identical":true)"), std::string::npos) << out;
  EXPECT_NE(out.find(R"("hit_rate":1.0000)"), std::string::npos) << out;
  EXPECT_NE(out.find(R"("verify":false)"), std::string::npos) << out;
}

// On one worker the cold parallel phase would repeat the serial one, so
// it is skipped: the warm phases replay phase 1's cache and the parallel
// fields are null.
TEST(LabGridPerf, OneThreadSkipsTheParallelColdPhase) {
  const char* argv[] = {"impact", "run", "grid_perf", "--smoke", "--threads",
                        "1"};
  testing::internal::CaptureStdout();
  const int rc = impact::lab::impact_main(6, argv);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find(R"("cells_identical":true)"), std::string::npos) << out;
  EXPECT_NE(out.find(R"("hit_rate":1.0000)"), std::string::npos) << out;
  EXPECT_NE(out.find(R"("parallel_seconds":null)"), std::string::npos)
      << out;
  EXPECT_NE(out.find(R"("speedup":null,"scaling_valid":false)"),
            std::string::npos)
      << out;
}

// ---------------------------------------------------------------------
// Cell-count pins: the numbers `impact describe` prints and the store /
// resume stages budget around. A grid-shape change must show up here.

TEST(LabSpecs, CellCountPins) {
  const struct {
    const char* name;
    std::size_t cells;
  } kPins[] = {
      {"fig11", 20},           // 5 workloads x 4 row policies
      {"fig10", 4},            // bank-count sweep
      {"table1", 5},           // attack primitives
      {"ablation_faults", 5},  // fault scales
      {"ablation_sweep", 26},  // five sub-sweeps: 5+5+3+7+6
      {"grid_perf", 20},       // 5 workloads x 4 policies
  };
  for (const auto& pin : kPins) {
    const ExperimentSpec* spec = builtin().find(pin.name);
    ASSERT_NE(spec, nullptr) << pin.name;
    ASSERT_TRUE(spec->cell_count) << pin.name;
    Context ctx(*spec, Args{});
    EXPECT_EQ(spec->cell_count(ctx), pin.cells) << pin.name;
  }
}

}  // namespace
