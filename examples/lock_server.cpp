// Beyond cache coherence: a centralized lock server refined by the same
// procedure (the paper's claim that the rules cover "large classes of DSM
// protocols" — any star-topology client/server rendezvous protocol).
//
// Verifies mutual exclusion at both semantics, confirms the acq/grant fusion
// and forward progress, then simulates a lock convoy on the discrete-event
// simulator (uniform cost preset: one cycle per message) and prints
// per-client acquisition counts and waits.
#include <cstdio>
#include <iostream>

#include "ltl/check.hpp"
#include "protocols/lockserver.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "sim/des.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/verify_cli.hpp"
#include "verify/par_checker.hpp"

using namespace ccref;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int n = static_cast<int>(
      cli.uint_flag("clients", 6, 1, 64, "number of clients"));
  int locks = static_cast<int>(cli.uint_flag(
      "acquisitions", 50, 1, 1u << 20, "lock/unlock pairs per client"));
  const VerifyFlags flags = verify_flags(cli, {.mem = "512M",
                                                .storage = true,
                                                .jobs = true,
                                                .symmetry = true,
                                                .por = true,
                                                .compress = true,
                                                .fairness = true});
  std::string ltl_text = cli.str_flag(
      "ltl", "", "LTL property to check on the asynchronous system, "
                 "e.g. \"G (requested(0) -> F granted(0))\"");
  cli.finish();

  auto p = protocols::make_lock_server();

  // ---- verify ------------------------------------------------------------------
  const int check_n = std::min(n, 3);
  sem::RendezvousSystem rendezvous(p, check_n);
  auto refined = refine::refine(p);
  auto rv_opts = flags.check_options<sem::RendezvousSystem>();
  rv_opts.invariant = protocols::lock_server_invariant(p, check_n);
  auto rv = verify::check(rendezvous, rv_opts, flags.jobs);
  std::printf("rendezvous mutual exclusion (%d clients): %s (%zu states)\n",
              check_n, verify::to_string(rv.status), rv.states);

  runtime::AsyncSystem async(refined, check_n);
  // Validate user-supplied LTL before the exploration so a typo fails fast.
  if (!ltl_text.empty()) {
    auto compiled = ltl::compile(async, ltl_text);
    if (!compiled.error.empty()) {
      std::fprintf(stderr, "bad --ltl property: %s\n",
                   compiled.error.c_str());
      return 2;
    }
  }
  // Invariant + edge check force the engine to see every state and edge,
  // so --por ample is downgraded here (the note says so); the progress
  // and LTL checks below still honor it.
  auto as_opts = flags.check_options<runtime::AsyncSystem>();
  as_opts.invariant = protocols::lock_server_async_invariant(p, check_n);
  as_opts.edge_check = refine::make_simulation_checker(async, rendezvous);
  auto as = verify::check(async, as_opts, flags.jobs);
  std::printf("asynchronous + Equation 1 (%d clients): %s (%zu states)\n",
              check_n, verify::to_string(as.status), as.states);
  if (!as.note.empty()) std::printf("  note: %s\n", as.note.c_str());
  auto prog = verify::check_progress(async, flags.progress_options());
  std::printf("forward progress: %zu doomed states\n", prog.doomed);
  if (rv.status != verify::Status::Ok || as.status != verify::Status::Ok ||
      prog.doomed != 0)
    return 1;

  if (!ltl_text.empty()) {
    auto live = ltl::check_ltl(async, ltl_text, flags.liveness_options());
    std::printf("ltl %s under %s fairness: %s, %zu product states\n",
                ltl_text.c_str(), verify::to_string(flags.fairness),
                verify::to_string(live.status), live.states);
    if (!live.note.empty()) std::printf("  note: %s\n", live.note.c_str());
    if (live.status != verify::Status::Ok) {
      std::printf("  %s\n", live.violation.c_str());
      for (const auto& step : live.stem)
        std::printf("  %s\n", step.c_str());
      for (const auto& step : live.cycle)
        std::printf("  (cycle) %s\n", step.c_str());
      return 1;
    }
  }
  std::printf("\n");

  // ---- simulate a convoy ---------------------------------------------------------
  refine::Options sim_opts_r;
  sim_opts_r.channel_capacity = 16;
  auto sim_refined = refine::refine(p, sim_opts_r);

  sim::Workload w;
  w.vocabulary = {"acq", "unlock"};  // active sends carry the message name
  w.per_remote.resize(n);
  const ir::StateId goal_cs = p.remote.find_state("CS");
  const ir::StateId goal_i = p.remote.find_state("I");
  for (auto& q : w.per_remote)
    for (int c = 0; c < locks; ++c) {
      q.push_back({"lock", {"acq"}, goal_cs});
      q.push_back({"unlock", {"unlock"}, goal_i});
    }

  sim::WorkloadSource src(w);
  sim::DesOptions dopts;
  dopts.cost = *sim::CostModel::preset("uniform");
  auto stats = sim::des_simulate(sim_refined, src, dopts);
  if (!stats.finished) {
    std::fprintf(stderr, "simulation stalled: %s\n",
                 stats.stall.to_string().c_str());
    return 1;
  }

  Table table({"Client", "Acquisitions", "Avg wait (cycles)", "Max wait"});
  for (int i = 0; i < n; ++i) {
    const auto& r = stats.nodes[i];
    table.row({strf("r%d", i),
               strf("%llu", static_cast<unsigned long long>(r.completed / 2)),
               strf("%.1f", r.completed
                                ? static_cast<double>(r.latency_total) /
                                      static_cast<double>(r.completed)
                                : 0.0),
               strf("%llu",
                    static_cast<unsigned long long>(r.latency_max))});
  }
  table.print(std::cout);
  std::printf("\n%llu messages for %llu lock/unlock pairs (%.2f msgs/pair); "
              "%llu nacks\n",
              static_cast<unsigned long long>(stats.messages()),
              static_cast<unsigned long long>(stats.ops_total / 2),
              2.0 * stats.msgs_per_op(),
              static_cast<unsigned long long>(stats.nack));
  return 0;
}
