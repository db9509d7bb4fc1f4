// Experiment LIVE — the liveness side of the paper's claims as temporal
// formulas (ltl/check.hpp over the Büchi-product engine):
//
//   G F completion                    §2.5: under weak process fairness the
//                                     refined protocols always complete
//                                     another rendezvous (no livelock) —
//                                     already at the paper's minimal buffer
//                                     k = 2.
//   G (requested(0) -> F granted(0))  §6: per-node starvation. At k = 2 a
//                                     concrete starvation lasso exists even
//                                     under strong (service) fairness: the
//                                     other requesters keep the buffer full,
//                                     remote 0 is nacked on every retry, and
//                                     no grant to 0 is ever *enabled* on the
//                                     cycle. With a slot per requester
//                                     (k = n + 1) requests are always
//                                     buffered, the grant stays enabled, and
//                                     service fairness forces it: PASS.
//
// Every run reports the usual engine row (status/states/transitions/seconds/
// memory) under the same 64 MB default cap as Table 3; counterexamples are
// concrete stem+cycle traces (printed with --traces).
#include <cstdio>
#include <iostream>

#include "ltl/check.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/verify_cli.hpp"

using namespace ccref;

namespace {

constexpr const char* kProgress = "G F completion";
constexpr const char* kNoStarvation = "G (requested(0) -> F granted(0))";

std::string cell(const verify::LivenessResult& r) {
  if (r.status == verify::Status::Unfinished)
    return strf("Unfinished (%zu+)", r.states);
  return strf("%s %zu/%.2f", verify::to_string(r.status), r.states,
              r.seconds);
}

struct Runner {
  const VerifyFlags& flags;
  bool traces;
  Table table{{"Protocol", "N", "k", "Semantics", "Property", "Fairness",
               "Result (states/s)"}};
  JsonArrayFile json{};

  template <class Sys>
  void run(const Sys& sys, const char* protocol, int n, int k,
           const char* semantics, const char* property,
           verify::FairnessMode fairness) {
    verify::LivenessOptions opts = flags.liveness_options();
    opts.fairness = fairness;
    auto r = ltl::check_ltl(sys, property, opts);

    JsonObject o;
    o.field("bench", "liveness")
        .field("protocol", protocol)
        .field("n", n)
        .field("k", k)
        .field("semantics", semantics)
        .field("engine", "seq")
        .field("jobs", 1)
        .field("symmetry", verify::to_string(r.symmetry))
        .field("por", verify::to_string(r.por))
        .field("property", property)
        .field("fairness", verify::to_string(fairness))
        .field("status", verify::to_string(r.status))
        .field("states", r.states)
        .field("transitions", r.transitions)
        .field("seconds", r.seconds)
        .field("memory_bytes", r.memory_bytes)
        // The liveness engine (product BFS + Tarjan SCCs) is RAM-only;
        // zeros keep the disk-usage schema uniform across every bench's
        // --json.
        .field("spill_bytes", std::size_t{0})
        .field("external_bytes", std::size_t{0});
    if (!r.note.empty()) o.field("note", r.note);
    json.push(o);
    table.row({protocol, strf("%d", n), k ? strf("%d", k) : "-", semantics,
               property, verify::to_string(fairness), cell(r)});
    if (traces && r.status == verify::Status::LivenessViolated) {
      std::printf("\n%s, n=%d, k=%d, %s [%s]: %s\n", protocol, n, k, property,
                  verify::to_string(fairness), r.violation.c_str());
      for (const auto& s : r.stem) std::printf("  stem  %s\n", s.c_str());
      for (const auto& s : r.cycle) std::printf("  cycle %s\n", s.c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const VerifyFlags flags =
      verify_flags(cli, {.mem = "64M", .symmetry = true, .por = true});
  bool smoke = cli.bool_flag("smoke", false,
                             "small configurations only (CI-sized)");
  bool traces =
      cli.bool_flag("traces", false, "print counterexample lassos");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  std::printf("LIVE: LTL liveness over the Büchi product "
              "(%zu MB cap%s)\n\n",
              flags.memory_limit >> 20, smoke ? ", smoke" : "");

  Runner runner{flags, traces};

  auto sweep = [&](const char* name, const ir::Protocol& p) {
    // §2.5 weak progress at the paper's minimal buffer.
    for (int n : smoke ? std::vector<int>{2} : std::vector<int>{2, 3}) {
      runner.run(sem::RendezvousSystem(p, n), name, n, 0, "rendezvous",
                 kProgress, verify::FairnessMode::Weak);
      auto rp = refine::refine(p);
      runner.run(runtime::AsyncSystem(rp, n), name, n,
                 rp.options.home_buffer_capacity, "asynchronous", kProgress,
                 verify::FairnessMode::Weak);
    }
    // §6 starvation needs a third requester to keep a k=2 buffer busy.
    const int n = 3;
    for (int k : {2, n + 1}) {
      refine::Options opts;
      opts.home_buffer_capacity = k;
      auto rp = refine::refine(p, opts);
      runner.run(runtime::AsyncSystem(rp, n), name, n, k, "asynchronous",
                 kNoStarvation, verify::FairnessMode::Strong);
    }
  };

  auto migratory = protocols::make_migratory();
  sweep("Migratory", migratory);
  if (!smoke) {
    auto invalidate = protocols::make_invalidate();
    sweep("Invalidate", invalidate);
  }

  runner.table.print(std::cout);
  std::printf(
      "\nreading: §2.5 — G F completion PASSes already at k=2 under weak\n"
      "fairness; §6 — the starvation formula FAILs at k=2 with a concrete\n"
      "nack-forever lasso (strong fairness notwithstanding) and PASSes once\n"
      "the buffer holds a slot per requester (k=n+1).\n");
  if (!json_path.empty() && !runner.json.write(json_path)) return 1;
  return 0;
}
