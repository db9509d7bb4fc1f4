// Experiment A-ABL — ablations of the refinement's design choices:
//
//   progress buffer (§3.2): reserve the last free slot for requests that can
//       complete a rendezvous in the current state. Without it, the buffer
//       fills with requests that cannot fire and the completing message is
//       nacked forever — the livelock the paper describes.
//   ack buffer (§3.2): reserve a slot for the pending target's response when
//       entering a transient state.
//   request/reply fusion (§3.3): message savings (see also E-MSG); here we
//       confirm it does not change safety or progress.
//
// Livelock is measured exactly: a *doomed* state is a reachable state from
// which no rendezvous-completing transition is ever reachable again.
#include <cstdio>
#include <iostream>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/verify_cli.hpp"
#include "verify/progress.hpp"

using namespace ccref;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const VerifyFlags flags = verify_flags(cli, {.mem = "1G", .por = true});
  bool full = cli.bool_flag(
      "full", true, "include the invalidate N=4 rows (~1.2M states each)");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  std::printf(
      "A-ABL: buffer-reservation ablations — doomed states = reachable "
      "livelock\n\n");
  Table table({"Protocol", "N", "progress buf", "ack buf", "fusion",
               "States", "Doomed states", "Verdict"});
  JsonArrayFile json;

  auto run = [&](const char* name, const ir::Protocol& p, int n,
                 bool progress, bool ack, bool fusion) {
    refine::Options opts;
    opts.progress_buffer = progress;
    opts.ack_buffer = ack;
    opts.request_reply_fusion = fusion;
    auto rp = refine::refine(p, opts);
    auto r = verify::check_progress(runtime::AsyncSystem(rp, n),
                                    flags.progress_options());
    std::string verdict =
        r.status != verify::Status::Ok ? "Unfinished"
        : r.doomed == 0                ? "live"
                                       : "LIVELOCK";
    table.row({name, strf("%d", n), progress ? "on" : "off",
               ack ? "on" : "off", fusion ? "on" : "off",
               strf("%zu", r.states), strf("%zu", r.doomed), verdict});
    JsonObject o;
    o.field("bench", "ablation")
        .field("protocol", name)
        .field("n", n)
        .field("semantics", "asynchronous")
        .field("engine", "seq")
        .field("jobs", 1)
        .field("symmetry", "off")
        .field("por", verify::to_string(flags.por))
        .field("progress_buffer", progress)
        .field("ack_buffer", ack)
        .field("fusion", fusion)
        .field("status", verify::to_string(r.status))
        .field("states", r.states)
        .field("doomed", r.doomed)
        // The progress checker keeps its reverse graph in RAM; zeros keep
        // the disk-usage schema uniform across every bench's --json.
        .field("spill_bytes", std::size_t{0})
        .field("external_bytes", std::size_t{0})
        .field("verdict", verdict);
    json.push(o);
  };

  auto mig = protocols::make_migratory();
  run("migratory", mig, 4, true, true, true);
  run("migratory", mig, 4, false, true, true);
  run("migratory", mig, 4, true, false, true);
  run("migratory", mig, 4, false, false, true);
  run("migratory", mig, 4, true, true, false);

  if (full) {
    auto inv = protocols::make_invalidate();
    run("invalidate", inv, 4, true, true, true);
    run("invalidate", inv, 4, false, true, true);
    run("invalidate", inv, 4, true, false, true);
    run("invalidate", inv, 4, false, false, true);
  }

  table.print(std::cout);
  std::printf(
      "\npaper (§3.2): without the progress-buffer reservation 'a livelock "
      "can result'; with both\nreservations the refined protocol guarantees "
      "forward progress for at least one remote (§2.5).\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
