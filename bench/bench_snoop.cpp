// SNOOP — the snooping bus family: MESI vs MOESI vs MESIF vs Dragon.
//
// Two sections:
//   verify   the four protocols through the engine matrix: abstract
//            (rendezvous broadcast) invariant at n=3 and refined
//            (split-transaction bus) invariant at n=2, with state counts per
//            engine configuration — the scenario-diversity unlock the
//            ROADMAP asks the broadcast IR for
//   traffic  timed synthetic traffic under the bus cost model: bus
//            transactions, memory write-backs, cache-to-cache transfers and
//            bus updates per miss — the classic protocol-economy comparison
//            (MOESI trades memory write-backs for c2c supply, Dragon trades
//            invalidations for word updates)
//
// `--smoke` runs a seconds-fast gate (all four verdicts under 64 MB at small
// n, a deterministic traffic run, a determinism replay) and exits nonzero on
// any mismatch — wired into CI.
//
//   ./bench_snoop --json=BENCH_snoop.json
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "protocols/snoop.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "sim/bus.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/verify_cli.hpp"
#include "verify/par_checker.hpp"

using namespace ccref;

namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::Status;
using verify::SymmetryMode;

template <class Sys, class Inv>
verify::CheckOptions<Sys> invariant_options(Inv inv, SymmetryMode symmetry,
                                            std::size_t memory_limit) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.symmetry = symmetry;
  opts.invariant = std::move(inv);
  opts.memory_limit = memory_limit;
  return opts;
}

// ---- smoke gate ---------------------------------------------------------

#define SMOKE_CHECK(cond)                                            \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "SMOKE FAIL %s:%d: %s\n", __FILE__,       \
                   __LINE__, #cond);                                 \
      return 1;                                                      \
    }                                                                \
  } while (0)

int smoke() {
  const std::size_t limit = 64u << 20;
  for (const auto& [name, p] : protocols::make_snoop_family()) {
    // Abstract broadcast level, n = 2, canonical symmetry.
    RendezvousSystem rv(p, 2);
    auto a = verify::explore(
        rv, invariant_options<RendezvousSystem>(
                protocols::snoop_invariant(p, 2), SymmetryMode::Canonical,
                limit));
    SMOKE_CHECK(a.status == Status::Ok);
    SMOKE_CHECK(a.states > 1);
    // Refined split-transaction bus, n = 2.
    auto rp = refine::refine(p);
    AsyncSystem as(rp, 2);
    auto r = verify::explore(
        as, invariant_options<AsyncSystem>(
                protocols::snoop_async_invariant(p, 2),
                SymmetryMode::Canonical, limit));
    SMOKE_CHECK(r.status == Status::Ok);
    SMOKE_CHECK(r.states > a.states);
  }
  // Deterministic traffic: same seed, same counters, run finishes.
  auto p = protocols::make_mesi();
  auto w = sim::make_bus_workload(4, 20, 0.3, 0.1, 16, 7);
  sim::BusOptions opts;
  opts.seed = 7;
  auto one = sim::bus_simulate(p, 4, w, opts);
  auto two = sim::bus_simulate(p, 4, w, opts);
  SMOKE_CHECK(one.finished && two.finished);
  SMOKE_CHECK(one.cycles == two.cycles && one.steps == two.steps);
  SMOKE_CHECK(one.bus_transactions == two.bus_transactions);
  SMOKE_CHECK(one.bus_transactions > 0 && one.grants > 0);
  SMOKE_CHECK(one.hits + one.mem_fills + one.c2c_transfers > 0);
  std::printf("bench_snoop --smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bool smoke_only = cli.bool_flag(
      "smoke", false, "fast correctness gate: all four verdicts, then exit");
  std::uint64_t nodes = cli.uint_flag(
      "nodes", 8, 2, 32, "caches on the simulated bus (traffic section)");
  std::uint64_t ops = cli.uint_flag(
      "ops", 200, 1, 1u << 20, "read/write ops per cache");
  double write_fraction =
      cli.double_flag("write-fraction", 0.3, "probability an op is a write");
  double evict_fraction = cli.double_flag(
      "evict-fraction", 0.1, "probability an op is followed by an evict");
  std::uint64_t seed = cli.uint_flag("seed", 42, 0, ~0ull, "workload seed");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  if (smoke_only) return smoke();

  JsonArrayFile json;
  auto family = protocols::make_snoop_family();

  // ---- verify: the engine matrix on both levels -------------------------
  std::printf("SNOOP-VERIFY: abstract (rendezvous broadcast) n=3, refined "
              "(split-transaction bus) n=2\n\n");
  Table ver({"Protocol", "level", "engine", "jobs", "sym", "states",
             "transitions", "sec"});
  const std::size_t limit = 512u << 20;
  for (const auto& [name, p] : family) {
    RendezvousSystem rv(p, 3);
    auto rp = refine::refine(p);
    AsyncSystem as(rp, 2);
    const struct {
      const char* level;
      unsigned jobs;
      SymmetryMode sym;
    } cells[] = {{"abstract", 1, SymmetryMode::Off},
                 {"abstract", 1, SymmetryMode::Canonical},
                 {"abstract", 4, SymmetryMode::Canonical},
                 {"refined", 1, SymmetryMode::Canonical},
                 {"refined", 4, SymmetryMode::Canonical}};
    // One table and JSON row per engine-matrix cell.
    auto run = [&](const auto& sys, auto opts, const auto& c, int n) {
      auto r = verify::check(sys, opts, c.jobs);
      if (r.status != Status::Ok) {
        std::fprintf(stderr, "%s %s: %s\n", name.c_str(), c.level,
                     r.violation.c_str());
        return false;
      }
      ver.row({name, c.level, c.jobs > 1 ? "par" : "seq", strf("%u", c.jobs),
               verify::to_string(c.sym), strf("%zu", r.states),
               strf("%zu", r.transitions), strf("%.2f", r.seconds)});
      JsonObject o;
      o.field("section", "verify")
          .field("protocol", name)
          .field("level", c.level)
          .field("n", n);
      add_check_fields(o, opts, c.jobs, r);
      json.push(o);
      return true;
    };
    for (const auto& c : cells) {
      const bool ok =
          std::string_view(c.level) == "abstract"
              ? run(rv,
                    invariant_options<RendezvousSystem>(
                        protocols::snoop_invariant(p, 3), c.sym, limit),
                    c, 3)
              : run(as,
                    invariant_options<AsyncSystem>(
                        protocols::snoop_async_invariant(p, 2), c.sym, limit),
                    c, 2);
      if (!ok) return 1;
    }
  }
  ver.print(std::cout);

  // ---- traffic: the bus cost model --------------------------------------
  std::printf("\nSNOOP-TRAFFIC: %llu caches x %llu ops, write %.2f, evict "
              "%.2f, avalanche bus costs\n\n",
              static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(ops), write_fraction,
              evict_fraction);
  Table traf({"Protocol", "bus txns", "txns/miss", "wb/miss", "c2c/miss",
              "fill/miss", "upd/miss", "hit rate", "cycles/op", "avg lat"});
  for (const auto& [name, p] : family) {
    auto w = sim::make_bus_workload(static_cast<int>(nodes),
                                    static_cast<int>(ops), write_fraction,
                                    evict_fraction, 32, seed);
    sim::BusOptions sopts;
    sopts.seed = seed;
    sopts.max_steps = 50'000'000;
    auto t = sim::bus_simulate(p, static_cast<int>(nodes), w, sopts);
    if (!t.finished) {
      std::fprintf(stderr, "%s traffic run stalled: %s\n", name.c_str(),
                   t.stall.c_str());
      return 1;
    }
    const double hit_rate =
        t.ops_total ? static_cast<double>(t.hits) / t.ops_total : 0.0;
    const double cycles_per_op =
        t.ops_total ? static_cast<double>(t.cycles) / t.ops_total : 0.0;
    traf.row(
        {name,
         strf("%llu", static_cast<unsigned long long>(t.bus_transactions)),
         strf("%.2f", t.per_op(t.bus_transactions)),
         strf("%.2f", t.per_op(t.mem_writebacks)),
         strf("%.2f", t.per_op(t.c2c_transfers)),
         strf("%.2f", t.per_op(t.mem_fills)),
         strf("%.2f", t.per_op(t.bus_updates)), strf("%.2f", hit_rate),
         strf("%.1f", cycles_per_op), strf("%.1f", t.avg_latency())});
    JsonObject o;
    o.field("section", "traffic")
        .field("protocol", name)
        .field("engine", "bus_sim")
        .field("jobs", 1)
        .field("symmetry", "off")
        .field("por", "off")
        .field("n", nodes)
        .field("ops", ops)
        .field("seed", seed)
        .field("bus_transactions", t.bus_transactions)
        .field("mem_writebacks", t.mem_writebacks)
        .field("c2c_transfers", t.c2c_transfers)
        .field("mem_fills", t.mem_fills)
        .field("bus_updates", t.bus_updates)
        .field("grants", t.grants)
        .field("hits", t.hits)
        .field("cycles", t.cycles)
        .field("avg_latency", t.avg_latency());
    json.push(o);
  }
  traf.print(std::cout);
  std::printf(
      "\nexpected shape: MOESI converts MESI memory write-backs into c2c "
      "supply (owned state);\nMESIF keeps clean sharing c2c (F responder); "
      "Dragon replaces invalidation misses with\nword updates — more bus "
      "transactions, far less block traffic.\n");

  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
