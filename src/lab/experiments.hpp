// The built-in experiment catalogue: one register function per
// experiment, each installing its spec into a lab::Registry.
// register_builtin() (registry.hpp) calls all of them. The pure
// renderers the golden byte-identity tests pin are also declared here —
// they take already-computed grid results, so a test can feed a
// synthetic grid and compare bytes without simulating.
#pragma once

#include <string>
#include <vector>

#include "lab/registry.hpp"
#include "store/cell_runner.hpp"

namespace impact::lab {

// Paper figures.
void register_fig2(Registry& r);
void register_fig3(Registry& r);
void register_fig7(Registry& r);
void register_fig8(Registry& r);
void register_fig9(Registry& r);
void register_fig10(Registry& r);
void register_fig11(Registry& r);

// Paper table and single-figure studies.
void register_table1(Registry& r);
void register_rowbuffer(Registry& r);
void register_completion_attack(Registry& r);
void register_mpr_utilization(Registry& r);
void register_rm_offload(Registry& r);

// Ablations.
void register_ablation_camouflage(Registry& r);
void register_ablation_faults(Registry& r);
void register_ablation_noise(Registry& r);
void register_ablation_sweep(Registry& r);
void register_ablation_timeout(Registry& r);

// Harness performance benchmarks.
void register_grid_perf(Registry& r);
void register_simulator_perf(Registry& r);

// Walkthrough examples.
void register_quickstart(Registry& r);
void register_keystroke_spy(Registry& r);
void register_rowclone_bulk_copy(Registry& r);

/// Fig. 11 body below the header line: defense-overhead table, averages
/// paragraph, and (obs builds) the merged grid totals. Pure function of
/// the grid so test_lab can pin its bytes against a synthetic grid.
[[nodiscard]] std::string render_fig11(
    const store::CellRunner::MatrixResult& grid);

/// Ablation-faults body below the header: the rendered fault-scale table
/// plus the closing interpretation paragraph. Pure function of the
/// CellRunner rows.
[[nodiscard]] std::string render_ablation_faults(
    const std::vector<std::vector<std::string>>& rows);

}  // namespace impact::lab
