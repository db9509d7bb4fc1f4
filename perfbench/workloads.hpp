// The benchmark's workloads and the code that runs one repetition of each.
//
// A repetition sets the workload up (protocol build, refinement, system or
// op-source construction), times one call into the engine — explore,
// par_explore or des_simulate — and checks the result. Traced repetitions
// run the same call through the wrappers in traced.hpp and add the
// per-layer values. README.md defines every value name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "verify/checker.hpp"

namespace perfbench {

/// Exhaustive reachability of one protocol instance.
struct VerifySpec {
  enum class Semantics : std::uint8_t { Async, Rendezvous };
  enum class Protocol : std::uint8_t { Migratory, Invalidate };
  Semantics semantics = Semantics::Async;
  Protocol protocol = Protocol::Migratory;
  int remotes = 2;
  bool parallel = false;  // par_explore with the run's jobs, else explore
  ccref::verify::SymmetryMode symmetry = ccref::verify::SymmetryMode::Off;
  ccref::verify::PorMode por = ccref::verify::PorMode::Off;
  ccref::verify::CompressionMode compress =
      ccref::verify::CompressionMode::Off;
  std::size_t memory_limit = 64u << 20;
  // Expected counts of the Ok verdict; 0 = not pinned.
  std::size_t states = 0, transitions = 0;
};

/// Open-loop lock_server arrivals through the discrete-event simulator.
struct DesSpec {
  std::uint32_t clients = 1000;
  std::uint32_t pairs = 4;  // acquire/release pairs per client
  std::uint64_t locks = 64;
  std::uint64_t think = 64;
  int lanes = 1;
  // Exact results at kPinnedDesSeed; 0 = not pinned.
  std::uint64_t events = 0, cycles = 0, p50 = 0, p99 = 0;

  [[nodiscard]] std::uint64_t expected_ops() const {
    return std::uint64_t{clients} * 2 * pairs;
  }
};

inline constexpr std::uint64_t kPinnedDesSeed = 42;

struct Workload {
  std::string name;
  std::string why;
  std::variant<VerifySpec, DesSpec> spec;
};

/// A reported metric: its name and unit, as in BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs (--trace 0).
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by traced runs (--trace 1), for every workload: a layer the
/// workload never calls reads 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The benchmark's workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// A smaller instance of `w` with its pins cleared (the self-test's input).
[[nodiscard]] Workload reduced(const Workload& w);

/// Named values of one repetition (seconds, counts, ratios).
using Values = std::map<std::string, double>;

struct Rep {
  Values values;
  std::uint64_t attempted = 0;  // operations: 1 per check, 1 per DES op
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // every failed check, for the log
  // Verification: states, transitions. DES: events, cycles.
  std::uint64_t count_a = 0, count_b = 0;
};

/// Time only the set-up of `w`: values protocols.build_s, refine.refine_s
/// and setup_s.
[[nodiscard]] Values time_setup(const Workload& w, std::uint64_t seed);

/// One repetition: set-up, the timed engine call, the correctness checks.
/// `jobs` is the par_explore worker count (ignored by other workloads).
[[nodiscard]] Rep run_rep(const Workload& w, std::uint64_t seed,
                          unsigned jobs, bool traced);

/// Sequential explore() of a verification workload's input, for checking
/// par_explore's counts against an engine that shares no table code.
[[nodiscard]] ccref::verify::CheckResult explore_seq(const Workload& w);

}  // namespace perfbench
