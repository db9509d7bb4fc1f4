// Custom protocols from text: parse a .csp file, validate it, model-check
// the rendezvous view, refine it, and model-check the asynchronous result
// with the §4 simulation relation.
//
//   ./custom_protocol path/to/protocol.csp [--remotes=3]
//
// Run without arguments to use the bundled ticket-dispenser example
// (examples/protocols/ticket.csp is compiled in below so the binary works
// from any directory).
#include <cstdio>

#include "dsl/parser.hpp"
#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "ltl/check.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/cli.hpp"
#include "support/storage_cli.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"
#include "verify/progress.hpp"

using namespace ccref;

namespace {

constexpr const char* kBundledTicket = R"(
protocol ticket;
message take;
message ticket(int);

home h {
  var j: node;
  var next: int mod 4;
  state IDLE initial {
    r(any j)?take -> GIVE
  }
  state GIVE {
    r(j)!ticket(next) { next := next + 1; j := none } -> IDLE
  }
}

remote r {
  var mine: int mod 4;
  state ASK initial {
    h!take -> WAIT
  }
  state WAIT {
    h?ticket(mine) -> DONE
  }
  internal DONE {
    tau again -> ASK
  }
}
)";

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int n = static_cast<int>(
      cli.uint_flag("remotes", 2, 1, 64, "number of remotes"));
  StorageFlags storage = storage_flags(cli, "64M");
  auto jobs = static_cast<unsigned>(cli.uint_flag(
      "jobs", 1, 1, 1024,
      "verification worker threads (1 = sequential engine)"));
  auto shards = static_cast<unsigned>(cli.uint_flag(
      "shards", 0, 0, 256,
      "visited-set shards for the parallel engine (0: match jobs)"));
  std::string sym_arg = cli.str_flag(
      "symmetry", "off", "symmetry reduction: off | canonical");
  std::string por_arg = cli.str_flag(
      "por", "off", "partial-order reduction: off | ample");
  std::string ltl_text = cli.str_flag(
      "ltl", "", "LTL property to check on the asynchronous system, "
                 "e.g. \"G F completion\"");
  std::string fair_arg = cli.str_flag(
      "fairness", "weak", "fairness for --ltl: none | weak | strong");
  std::string compress_arg = cli.str_flag(
      "compress", "off", "state-vector compression: off | collapse");
  cli.finish();
  auto symmetry = verify::parse_symmetry(sym_arg);
  if (!symmetry) {
    std::fprintf(stderr, "bad --symmetry value '%s' (off | canonical)\n",
                 sym_arg.c_str());
    return 2;
  }
  auto compress = verify::parse_compression(compress_arg);
  if (!compress) {
    std::fprintf(stderr, "bad --compress value '%s' (off | collapse)\n",
                 compress_arg.c_str());
    return 2;
  }
  auto fairness = verify::parse_fairness(fair_arg);
  if (!fairness) {
    std::fprintf(stderr, "bad --fairness value '%s' (none | weak | strong)\n",
                 fair_arg.c_str());
    return 2;
  }
  auto por = verify::parse_por(por_arg);
  if (!por) {
    std::fprintf(stderr, "bad --por value '%s' (off | ample)\n",
                 por_arg.c_str());
    return 2;
  }

  dsl::ParseResult parsed =
      cli.positional().empty() ? dsl::parse(kBundledTicket)
                               : dsl::parse_file(cli.positional()[0]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed:\n%s\n",
                 parsed.error_text().c_str());
    return 1;
  }
  const ir::Protocol& p = *parsed.protocol;
  std::printf("parsed protocol '%s':\n\n%s\n", p.name.c_str(),
              ir::to_string(p).c_str());

  auto diags = ir::validate(p);
  if (ir::has_errors(diags)) {
    std::fprintf(stderr, "validation failed:\n%s",
                 ir::to_string(diags).c_str());
    return 1;
  }
  if (!diags.empty())
    std::printf("warnings:\n%s\n", ir::to_string(diags).c_str());

  sem::RendezvousSystem rendezvous(p, n);
  verify::CheckOptions<sem::RendezvousSystem> rv_opts;
  rv_opts.memory_limit = storage.memory_limit;
  rv_opts.hash_compact = storage.hash_compact;
  rv_opts.spill = storage.spill;
  rv_opts.external = storage.external;
  rv_opts.symmetry = *symmetry;
  rv_opts.compress = *compress;
  auto rv = jobs <= 1 ? verify::explore(rendezvous, rv_opts)
                      : verify::par_explore(rendezvous, rv_opts, jobs, shards);
  std::printf("rendezvous (%d remotes): %s, %zu states (%.3fs)\n", n,
              verify::to_string(rv.status), rv.states, rv.seconds);
  if (rv.status != verify::Status::Ok) {
    std::printf("  %s\n", rv.violation.c_str());
    for (const auto& step : rv.trace) std::printf("  %s\n", step.c_str());
    return 1;
  }

  auto refined = refine::refine(p);
  std::printf("refinement:\n");
  for (ir::MsgId m = 0; m < p.messages.size(); ++m)
    std::printf("  %-10s %s\n", p.messages[m].name.c_str(),
                refine::to_string(refined.cls(m)));

  runtime::AsyncSystem async(refined, n);
  // Validate user-supplied LTL up front so a typo fails before the (possibly
  // long) exploration, not after it.
  if (!ltl_text.empty()) {
    auto compiled = ltl::compile(async, ltl_text);
    if (!compiled.error.empty()) {
      std::fprintf(stderr, "bad --ltl property: %s\n",
                   compiled.error.c_str());
      return 2;
    }
  }
  verify::CheckOptions<runtime::AsyncSystem> opts;
  opts.memory_limit = storage.memory_limit;
  opts.hash_compact = storage.hash_compact;
  opts.spill = storage.spill;
  opts.external = storage.external;
  opts.symmetry = *symmetry;
  // The Equation-1 edge check must see every edge, so the engine downgrades
  // --por ample here and says so in the note.
  opts.por = *por;
  opts.compress = *compress;
  // The Equation-1 simulation proof only exists for star protocols: no
  // single rendezvous prefix corresponds to a mid-flight bus transaction
  // (DESIGN.md §4.9). Bus protocols get invariant/progress checks on both
  // levels instead.
  if (p.topology == ir::Topology::Star)
    opts.edge_check = refine::make_simulation_checker(async, rendezvous);
  else
    std::printf("topology bus: skipping the Equation-1 edge check "
                "(star-only; both levels are invariant-checked)\n");
  auto as = jobs <= 1 ? verify::explore(async, opts)
                      : verify::par_explore(async, opts, jobs, shards);
  std::printf("asynchronous (%d remotes): %s, %zu states (%.3fs)\n", n,
              verify::to_string(as.status), as.states, as.seconds);
  if (!as.note.empty()) std::printf("  note: %s\n", as.note.c_str());
  if (as.status != verify::Status::Ok) {
    std::printf("  %s\n", as.violation.c_str());
    for (const auto& step : as.trace) std::printf("  %s\n", step.c_str());
    return 1;
  }

  verify::ProgressOptions prog_opts;
  prog_opts.por = *por;
  prog_opts.compress = *compress;
  auto prog = verify::check_progress(async, prog_opts);
  std::printf("progress: %zu/%zu states can always complete another "
              "rendezvous%s\n",
              prog.states - prog.doomed, prog.states,
              prog.doomed ? "  <-- LIVELOCK" : "");

  if (!ltl_text.empty()) {
    verify::LivenessOptions lopts;
    lopts.fairness = *fairness;
    lopts.symmetry = *symmetry;
    lopts.por = *por;
    lopts.compress = *compress;
    auto live = ltl::check_ltl(async, ltl_text, lopts);
    std::printf("ltl %s under %s fairness: %s, %zu product states (%.3fs)\n",
                ltl_text.c_str(), verify::to_string(*fairness),
                verify::to_string(live.status), live.states, live.seconds);
    if (!live.note.empty()) std::printf("  note: %s\n", live.note.c_str());
    if (live.status != verify::Status::Ok) {
      std::printf("  %s\n", live.violation.c_str());
      for (const auto& step : live.stem) std::printf("  %s\n", step.c_str());
      for (const auto& step : live.cycle)
        std::printf("  (cycle) %s\n", step.c_str());
      return 1;
    }
  }

  std::printf(p.topology == ir::Topology::Star
                  ? "\nall checks passed — Equation 1 held on every "
                    "transition.\n"
                  : "\nall checks passed — both levels invariant-clean.\n");
  return prog.doomed == 0 ? 0 : 1;
}
