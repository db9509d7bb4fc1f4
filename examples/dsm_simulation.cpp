// DSM workload simulation: runs the refined migratory and invalidate
// protocols on synthetic CPU workloads and reports the message-economy and
// latency statistics a DSM architect would look at (the paper's quality
// metric, §1).
//
// The discrete-event simulator (sim::des_simulate) runs every workload:
// latency is in cycles under --cost-model, with optional --write-buffer,
// parallel --lanes, and trace-file workloads (--trace).
//
//   ./dsm_simulation --remotes=8 --cycles=100 --write-fraction=0.3
//   ./dsm_simulation --remotes=64 --lanes=4 --cost-model=dsm
//   ./dsm_simulation --trace=examples/traces/sharing.trace --json
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "sim/des.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ccref;

namespace {

/// Rows printed as a JSON array on stdout when --json is set; every row
/// carries the common (protocol, n, seed, engine) identity fields first.
struct JsonRows {
  bool enabled = false;
  std::vector<std::string> rows;

  JsonObject common(const char* protocol, int n, std::uint64_t seed) const {
    JsonObject o;
    o.field("protocol", protocol)
        .field("n", n)
        .field("seed", seed)
        .field("engine", "des");
    return o;
  }
  void push(const JsonObject& o) { rows.push_back(o.str()); }
  void print() const {
    std::printf("[\n");
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::printf("  %s%s\n", rows[i].c_str(),
                  i + 1 < rows.size() ? "," : "");
    std::printf("]\n");
  }
};

void report(Table& table, JsonRows& json, const char* name, int n,
            std::uint64_t seed, const sim::DesStats& stats) {
  if (json.enabled) {
    auto o = json.common(name, n, seed);
    o.field("finished", stats.finished)
        .field("ops", stats.ops_total)
        .field("messages", stats.messages())
        .field("msgs_per_op", stats.msgs_per_op())
        .field("nacks", stats.nack)
        .field("events", stats.events)
        .field("cycles", stats.cycles)
        .field("lat_p50", stats.latency.percentile(0.5))
        .field("lat_p99", stats.latency.percentile(0.99))
        .field("memory_accesses", stats.memory_accesses)
        .field("c2c_transfers", stats.c2c_transfers)
        .field("write_backs", stats.write_backs)
        .field("home_occupancy", stats.home_occupancy())
        .field("wbuf_hits", stats.wbuf_hits)
        .field("fairness", stats.fairness_index());
    if (!stats.finished) o.field("stall", stats.stall.to_string());
    json.push(o);
    return;
  }
  if (!stats.finished) {
    std::fprintf(stderr, "%s stalled: %s\n", name,
                 stats.stall.to_string().c_str());
    return;
  }
  table.row(
      {name,
       strf("%llu", static_cast<unsigned long long>(stats.ops_total)),
       strf("%llu", static_cast<unsigned long long>(stats.messages())),
       strf("%.2f", stats.msgs_per_op()),
       strf("%llu", static_cast<unsigned long long>(stats.nack)),
       strf("%llu",
            static_cast<unsigned long long>(stats.latency.percentile(0.5))),
       strf("%llu",
            static_cast<unsigned long long>(stats.latency.percentile(0.99))),
       strf("%.3f", stats.fairness_index())});
}

/// A trace can only drive protocols that map all its mnemonics (a lock
/// trace's acq/rel don't exist in the invalidate protocol, say).
bool trace_fits(const ir::Protocol& p, const sim::Trace& trace) {
  auto map = sim::OpMap::for_protocol(p);
  if (!map) return false;
  std::set<std::string> ops;
  for (const auto& r : trace.records) ops.insert(r.op);
  for (const auto& op : ops)
    if (!map->find(op)) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int n = static_cast<int>(
      cli.uint_flag("remotes", 8, 1, 1u << 20, "number of remotes"));
  int cycles = static_cast<int>(
      cli.uint_flag("cycles", 100, 1, 1u << 20, "ops per remote"));
  double write_frac = cli.double_flag("write-fraction", 0.3,
                                      "invalidate write-miss ratio");
  std::uint64_t seed =
      cli.uint_flag("seed", 1, 0, ~0ull, "synthetic workload seed");
  int k = static_cast<int>(
      cli.uint_flag("home-buffer", 2, 2, 1024, "home buffer capacity k"));
  std::uint64_t max_steps = cli.uint_flag(
      "max-steps", 50'000'000, 1, ~0ull,
      "event budget before a run is declared stalled");
  bool json = cli.bool_flag("json", false, "machine-readable JSON on stdout");
  std::string trace_path = cli.str_flag(
      "trace", "", "replay a trace file instead of synthetic workloads");
  std::string cost_name = cli.str_flag(
      "cost-model", "avalanche", "cycle costs: avalanche | uniform | dsm");
  bool write_buffer = cli.bool_flag(
      "write-buffer", false, "absorb stores into a remote write buffer");
  int lanes = static_cast<int>(
      cli.uint_flag("lanes", 1, 1, 64, "parallel independent-home lanes"));
  std::uint64_t addresses = cli.uint_flag(
      "addresses", 4, 1, ~0ull, "synthetic address-space size");
  cli.finish();

  refine::Options opts;
  opts.home_buffer_capacity = k;
  opts.channel_capacity = 16;

  JsonRows rows;
  rows.enabled = json;
  Table table({"Protocol", "Ops", "Messages", "msgs/op", "nacks",
               "p50 latency", "p99 latency", "Jain fairness"});

  auto cost = sim::CostModel::preset(cost_name);
  if (!cost) {
    std::fprintf(stderr, "unknown --cost-model '%s'\n", cost_name.c_str());
    return 2;
  }
  sim::DesOptions dopts;
  dopts.cost = *cost;
  dopts.write_buffer = write_buffer;
  dopts.lanes = lanes;
  dopts.max_events = max_steps;
  sim::Trace trace;
  if (!trace_path.empty()) {
    std::string err;
    if (!sim::load_trace(trace_path, trace, err)) {
      std::fprintf(stderr, "%s: %s\n", trace_path.c_str(), err.c_str());
      return 2;
    }
  }

  struct Proto {
    const char* name;
    ir::Protocol p;
  };
  std::vector<Proto> protos;
  protos.push_back({"migratory", protocols::make_migratory()});
  protos.push_back({"invalidate", protocols::make_invalidate()});

  for (auto& [name, p] : protos) {
    auto rp = refine::refine(p, opts);
    if (!trace_path.empty()) {
      if (!trace_fits(p, trace)) {
        std::fprintf(stderr, "%s: trace has mnemonics this protocol "
                             "does not map; skipped\n",
                     name);
        continue;
      }
      sim::TraceSource src(p, trace);
      report(table, rows, name, static_cast<int>(src.num_nodes()), seed,
             sim::des_simulate(rp, src, dopts));
      continue;
    }
    sim::SyntheticConfig cfg;
    cfg.kind = name;
    cfg.nodes = static_cast<std::uint32_t>(n);
    cfg.ops_per_node = static_cast<std::uint32_t>(cycles);
    cfg.addresses = addresses;
    cfg.write_fraction = write_frac;
    cfg.seed = seed;
    sim::SyntheticSource src(p, cfg);
    report(table, rows, name, n, seed, sim::des_simulate(rp, src, dopts));
  }

  if (json) {
    rows.print();
    return 0;
  }
  std::printf("DSM simulation (discrete-event): %d remotes, %d ops each, "
              "k=%d, seed %llu, cost=%s, lanes=%d%s\n\n",
              n, cycles, k, static_cast<unsigned long long>(seed),
              cost_name.c_str(), lanes, write_buffer ? ", write buffer" : "");
  table.print(std::cout);
  std::printf(
      "\nLatency is in simulated cycles under the %s cost model; msgs/op "
      "counts\nreq+ack+nack+repl wire messages per completed operation.\n",
      cost_name.c_str());
  return 0;
}
