// Experiment F-SCALE — the §5 scaling claim:
//
//   "the rendezvous migratory protocol could be model checked for up to 64
//    nodes using 32MB of memory, while the asynchronous protocol can be
//    model checked for only two nodes using 64MB of memory."
//
// Sweeps N for both semantics and reports states / time / memory, with the
// per-run limits from the paper (32 MB rendezvous, 64 MB asynchronous).
//
// `--sweep` switches to the SCALE experiment instead: the lock-free
// parallel engine on the asynchronous migratory and invalidate protocols
// at fixed N, jobs in {1,2,4,8,max} crossed with compression off/collapse,
// reporting states/sec and speedup versus the jobs=1 run of the same
// configuration. `--assert-jobs J --assert-speedup S` turns the sweep into
// a CI gate: exit 1 unless every configuration reaches speedup >= S at
// jobs=J (only meaningful on a machine with >= J hardware threads).
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <thread>
#include <type_traits>
#include <vector>

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
#include "verify/par_checker.hpp"

using namespace ccref;

namespace {

double states_per_sec(const verify::CheckResult& r) {
  return r.seconds > 0 ? static_cast<double>(r.states) / r.seconds : 0.0;
}

int run_sweep(std::size_t as_mem, unsigned sweep_n, unsigned assert_jobs,
              double assert_speedup, const std::string& assert_protocol,
              const std::string& json_path) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> jobs_sweep{1, 2, 4, 8, hw};
  std::sort(jobs_sweep.begin(), jobs_sweep.end());
  jobs_sweep.erase(std::unique(jobs_sweep.begin(), jobs_sweep.end()),
                   jobs_sweep.end());

  std::printf(
      "SCALE: lock-free parallel engine, asynchronous semantics, N=%u\n"
      "hardware threads: %u (speedups beyond %u jobs cannot materialize "
      "here)\n\n",
      sweep_n, hw, hw);
  Table table({"Protocol", "Compress", "Jobs", "Status", "States",
               "Time (s)", "States/s", "Speedup"});
  JsonArrayFile json;

  struct Config {
    const char* name;
    ir::Protocol proto;
  };
  Config configs[] = {{"Migratory", protocols::make_migratory()},
                      {"Invalidate", protocols::make_invalidate()}};
  bool asserts_ok = true;

  for (auto& cfg : configs) {
    auto rp = refine::refine(cfg.proto);
    runtime::AsyncSystem sys(rp, static_cast<int>(sweep_n));
    for (auto compress :
         {verify::CompressionMode::Off, verify::CompressionMode::Collapse}) {
      double base_seconds = 0;
      for (unsigned jobs : jobs_sweep) {
        verify::CheckOptions<runtime::AsyncSystem> opts;
        opts.memory_limit = as_mem;
        opts.want_trace = false;
        opts.compress = compress;
        auto r = verify::check(sys, opts, jobs);
        if (jobs == 1) base_seconds = r.seconds;
        const double speedup =
            r.seconds > 0 ? base_seconds / r.seconds : 0.0;
        table.row({cfg.name, verify::to_string(compress), strf("%u", jobs),
                   verify::to_string(r.status), strf("%zu", r.states),
                   strf("%.3f", r.seconds), strf("%.0f", states_per_sec(r)),
                   strf("%.2fx", speedup)});
        JsonObject o;
        o.field("bench", "scale_sweep")
            .field("protocol", cfg.name)
            .field("semantics", "asynchronous")
            .field("n", static_cast<int>(sweep_n))
            .field("hardware_concurrency", static_cast<int>(hw))
            .field("states_per_sec", states_per_sec(r))
            .field("speedup_vs_1", speedup);
        add_check_fields(o, opts, jobs, r);
        json.push(o);
        const bool gated =
            assert_protocol.empty() || assert_protocol == cfg.name;
        if (gated && assert_jobs > 0 && jobs == assert_jobs &&
            speedup < assert_speedup) {
          std::fprintf(stderr,
                       "SPEEDUP ASSERT FAILED: %s compress=%s jobs=%u "
                       "speedup %.2fx < required %.2fx\n",
                       cfg.name, verify::to_string(compress), jobs, speedup,
                       assert_speedup);
          asserts_ok = false;
        }
      }
    }
  }

  table.print(std::cout);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  if (!asserts_ok) return 1;
  if (assert_jobs > 0)
    std::printf("\nspeedup assertion passed: >= %.2fx at jobs=%u\n",
                assert_speedup, assert_jobs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::size_t rv_mem = static_cast<std::size_t>(
      cli.size_flag("rendezvous-mem", "32M", 1u << 20,
                    std::numeric_limits<std::uint64_t>::max(),
                    "rendezvous state-memory limit, e.g. 32M or 1G"));
  std::size_t as_mem = static_cast<std::size_t>(
      cli.size_flag("async-mem", "64M", 1u << 20,
                    std::numeric_limits<std::uint64_t>::max(),
                    "asynchronous state-memory limit, e.g. 64M or 2G"));
  const VerifyFlags flags = verify_flags(
      cli, {.jobs = true, .symmetry = true, .por = true, .compress = true});
  bool sweep = cli.bool_flag(
      "sweep", false,
      "run the parallel scaling sweep (jobs x compression) instead");
  auto sweep_n = static_cast<unsigned>(cli.uint_flag(
      "sweep-n", 4, 2, 16, "asynchronous node count for --sweep"));
  auto assert_jobs = static_cast<unsigned>(cli.uint_flag(
      "assert-jobs", 0, 0, 1024,
      "with --sweep: jobs level the speedup assertion applies to (0: off)"));
  double assert_speedup = cli.double_flag(
      "assert-speedup", 0.0,
      "with --sweep: minimum speedup_vs_1 required at --assert-jobs");
  std::string assert_protocol = cli.str_flag(
      "assert-protocol", "",
      "with --sweep: restrict the speedup assertion to this protocol "
      "(Migratory | Invalidate; empty: all)");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();
  const unsigned jobs = flags.jobs;

  if (sweep)
    return run_sweep(as_mem, sweep_n, assert_jobs, assert_speedup,
                     assert_protocol, json_path);

  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);

  std::printf("F-SCALE: migratory protocol, max checkable N per semantics\n\n");
  Table table({"Semantics", "N", "Status", "States", "Time (s)", "Memory"});
  JsonArrayFile json;

  // Sweep N under one semantics until a run stops being Ok; one table and
  // JSON row per run.
  auto sweep_n_of = [&](const auto& make_sys, const char* semantics,
                        std::size_t mem, std::initializer_list<int> ns) {
    for (int n : ns) {
      const auto sys = make_sys(n);
      auto opts = flags.check_options<std::decay_t<decltype(sys)>>();
      opts.memory_limit = mem;
      opts.want_trace = false;
      auto r = verify::check(sys, opts, jobs);
      table.row({strf("%s (%s)", semantics, human_bytes(mem).c_str()),
                 strf("%d", n), verify::to_string(r.status),
                 strf("%zu", r.states), strf("%.2f", r.seconds),
                 human_bytes(r.memory_bytes)});
      JsonObject o;
      o.field("bench", "scaling")
          .field("protocol", "Migratory")
          .field("n", n)
          .field("semantics", semantics)
          .field("states_per_sec", states_per_sec(r));
      add_check_fields(o, opts, jobs, r);
      json.push(o);
      if (r.status != verify::Status::Ok) break;
    }
  };
  sweep_n_of([&](int n) { return sem::RendezvousSystem(p, n); }, "rendezvous",
             rv_mem, {2, 4, 8, 16, 32, 64});
  sweep_n_of([&](int n) { return runtime::AsyncSystem(rp, n); },
             "asynchronous", as_mem, {2, 3, 4, 5, 6, 8});

  table.print(std::cout);
  std::printf(
      "\npaper: rendezvous checkable to N=64 in 32MB; asynchronous only N=2 "
      "in 64MB.\nOur per-state footprint is smaller than SPIN 2.x's, so the "
      "asynchronous wall sits at N=6 instead of N=4, with the same "
      "exponential shape.\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
