// ccref_perfbench_selftest — the traced wrappers must not change the search.
//
// For every workload at reduced size, a traced and an untraced repetition
// must give identical state/transition (DES: event/cycle) counts, the traced
// run must expand each stored state exactly once, and par_explore must agree
// with the sequential engine; the host reference burst must complete. The
// parallel workload runs its traced repetition with several workers, so
// building with -DPERFBENCH_TSAN=ON and running this binary checks the
// per-thread accumulators for races.
//
//   ccref_perfbench_selftest     (exit 0 = all checks passed)
#include <cstdio>
#include <string>
#include <variant>

#include "host_ref.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void check_workload(const Workload& full) {
  const Workload w = reduced(full);
  constexpr unsigned kJobs = 3;
  const Rep plain = run_rep(w, kPinnedDesSeed, kJobs, false);
  const Rep traced = run_rep(w, kPinnedDesSeed, kJobs, true);
  const std::string tag = w.name + ": ";
  expect(plain.errors.empty() && traced.errors.empty() && plain.failed == 0 &&
             traced.failed == 0,
         tag + "both repetitions pass their checks");
  expect(plain.count_a == traced.count_a && plain.count_b == traced.count_b,
         tag + "traced counts " + std::to_string(traced.count_a) + "/" +
             std::to_string(traced.count_b) + " == untraced " +
             std::to_string(plain.count_a) + "/" +
             std::to_string(plain.count_b));
  for (const auto& m : per_layer_metrics())
    expect(traced.values.count(m.name) == 1,
           tag + "traced run reports " + m.name);

  if (const auto* v = std::get_if<VerifySpec>(&w.spec)) {
    const std::string layer =
        v->semantics == VerifySpec::Semantics::Async ? "runtime." : "sem.";
    expect(traced.values.at(layer + "successors_calls") ==
               static_cast<double>(traced.count_a),
           tag + "one expansion per stored state");
    const double ample = traced.values.at("verify.ample_ratio");
    if (v->por == ccref::verify::PorMode::Off)
      expect(ample == 1.0, tag + "ample_ratio is 1 without POR");
    else
      expect(ample > 0 && ample < 1.0, tag + "POR steps fewer edges");
    if (v->symmetry == ccref::verify::SymmetryMode::Canonical)
      expect(traced.values.at("runtime.canonicalize_calls") > 0,
             tag + "symmetry canonicalizes through the wrapper");
    if (v->parallel) {
      const auto seq = explore_seq(w);
      expect(seq.states == plain.count_a && seq.transitions == plain.count_b,
             tag + "par_explore == seq explore");
      const double workers = traced.values.at("par.workers");
      expect(workers >= 1, tag + "per-worker slots recorded (" +
                               std::to_string(static_cast<int>(workers)) +
                               " workers expanded states)");
    }
  } else {
    expect(traced.values.at("sim.source_next_calls") > 0,
           tag + "op source calls recorded");
  }
}

}  // namespace

int main() {
  for (const auto& w : workloads()) check_workload(w);
  const double ref = HostReference().run();
  expect(ref > 0, "host reference burst returned " + std::to_string(ref) +
                      " s from its child");
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
