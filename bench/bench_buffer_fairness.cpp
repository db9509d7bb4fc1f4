// Experiment E-BUF — buffer requirements and fairness (§2.5, §6):
//
//   "If we were to guarantee progress only for some remote node, a buffer
//    that can hold 2 messages suffices. ... assuring forward progress for
//    each remote node requires too much buffer space ... if the size of the
//    buffer in the home node is n ... the home node never generates a nack."
//
// Sweeps the home buffer capacity k for a fixed contending population and
// reports nack traffic, messages per op, latency spread, and Jain's fairness
// index over per-remote completions. k = n+1 (one slot per remote plus the
// ack buffer) eliminates nacks entirely, as §6 predicts.
//
// The discrete-event simulator runs every row under the "uniform" cost
// preset (each message one cycle, free directory); latency is in those
// cycles, from an op's issue to its completion.
#include <cstdio>
#include <algorithm>
#include <iostream>

#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "sim/des.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ccref;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int n = static_cast<int>(
      cli.uint_flag("remotes", 8, 1, 64, "contending remotes"));
  int cycles = static_cast<int>(cli.uint_flag(
      "cycles", 40, 1, 1u << 20, "acquire/release cycles per remote"));
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  auto p = protocols::make_migratory();
  auto w = sim::migratory_workload(p, n, cycles);

  std::printf(
      "E-BUF: home buffer capacity k vs nacks and fairness "
      "(migratory, %d remotes, %d cycles each)\n\n",
      n, cycles);
  Table table({"k", "Ops", "nacks", "nacks/op", "msgs/op",
               "avg latency (cycles)", "max latency (cycles)",
               "Jain fairness"});
  JsonArrayFile json;

  std::vector<int> ks = {2, 3, 4, n / 2, n, n + 1};
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  bool finished = true;
  for (int k : ks) {
    refine::Options opts;
    opts.home_buffer_capacity = k;
    opts.channel_capacity = 8;
    auto rp = refine::refine(p, opts);
    sim::WorkloadSource src(w);
    sim::DesOptions dopts;
    dopts.cost = *sim::CostModel::preset("uniform");
    auto stats = sim::des_simulate(rp, src, dopts);
    JsonObject o;
    o.field("bench", "buffer_fairness")
        .field("protocol", "Migratory")
        .field("n", n)
        .field("k", k)
        .field("semantics", "asynchronous")
        .field("engine", "des")
        .field("jobs", 1)
        .field("symmetry", "off")
        .field("por", "off")
        .field("status", stats.finished ? "ok" : "stalled");
    if (!stats.finished) {
      finished = false;
      json.push(o);
      table.row({strf("%d", k), "STALLED", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    o.field("ops", stats.ops_total)
        .field("nacks", stats.nack)
        .field("msgs_per_op", stats.msgs_per_op())
        .field("latency_avg", stats.latency.mean())
        .field("latency_max", stats.latency.max())
        .field("jain_fairness", stats.fairness_index())
        // Simulator rows: zeros keep the disk-usage schema uniform.
        .field("spill_bytes", std::size_t{0})
        .field("external_bytes", std::size_t{0});
    json.push(o);
    table.row(
        {strf("%d", k),
         strf("%llu", static_cast<unsigned long long>(stats.ops_total)),
         strf("%llu", static_cast<unsigned long long>(stats.nack)),
         strf("%.3f", static_cast<double>(stats.nack) /
                          static_cast<double>(stats.ops_total)),
         strf("%.2f", stats.msgs_per_op()),
         strf("%.1f", stats.latency.mean()),
         strf("%llu", static_cast<unsigned long long>(stats.latency.max())),
         strf("%.3f", stats.fairness_index())});
  }

  table.print(std::cout);
  std::printf(
      "\npaper (§2.5/§6): k=2 suffices for weak-fairness progress; a buffer "
      "of n (here k=%d)\nmeans the home never nacks; per-remote strong "
      "fairness by refinement alone is impractical.\n",
      n + 1);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return finished ? 0 : 1;
}
