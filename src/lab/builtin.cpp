// Installs every built-in experiment into a Registry. Registration is
// explicit (no static self-registration): a static-library TU with only a
// global registrar object would be dropped by the linker, and simlint's
// global-state rule forbids the mutable file-scope registry such schemes
// need. The price is this one list; the payoff is that linking any
// register function pulls in exactly the experiments asked for.
#include "lab/experiments.hpp"
#include "lab/registry.hpp"

namespace impact::lab {

void register_builtin(Registry& r) {
  // Paper figures.
  register_fig2(r);
  register_fig3(r);
  register_fig7(r);
  register_fig8(r);
  register_fig9(r);
  register_fig10(r);
  register_fig11(r);
  // Paper table and single-figure studies.
  register_table1(r);
  register_rowbuffer(r);
  register_completion_attack(r);
  register_mpr_utilization(r);
  register_rm_offload(r);
  // Ablations.
  register_ablation_camouflage(r);
  register_ablation_faults(r);
  register_ablation_noise(r);
  register_ablation_sweep(r);
  register_ablation_timeout(r);
  // Harness performance benchmarks.
  register_grid_perf(r);
  register_simulator_perf(r);
  // Walkthrough examples.
  register_quickstart(r);
  register_keystroke_spy(r);
  register_rowclone_bulk_copy(r);
}

}  // namespace impact::lab
