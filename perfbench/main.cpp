// ccref_perfbench — runs one benchmark workload for a fixed time and prints
// its metrics; the last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics from untraced repetitions;
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics of the traced ones plus trace.overhead_frac. A burst of
// the host reference kernel (host_ref.hpp) runs before every repetition and
// after the last, and the timed end-to-end metrics are in units of the
// bursts around each repetition. Every repetition's output is checked; any
// failure exits 1. Metric definitions are in README.md.
//
//   ccref_perfbench --workload async-full --seed 1 --seconds 25 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "host_ref.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

// Set-up takes microseconds to a millisecond: before every repetition, time
// it this many times (within the time cap), so that its median spans the
// whole run like run_s does.
constexpr std::size_t kSetupBurst = 41;
constexpr double kSetupBurstSeconds = 0.1;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double median_of(const std::vector<Values>& samples, const std::string& key) {
  std::vector<double> v;
  for (const auto& s : samples)
    if (auto it = s.find(key); it != s.end()) v.push_back(it->second);
  return median(v);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024 / 1e6;  // ru_maxrss: KiB
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ccref_perfbench: %s\nusage: ccref_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\nworkloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &pos);
  } catch (...) {
    pos = 0;
  }
  if (pos == 0 || pos != text.size() || text[0] == '-')
    usage((flag + " needs a non-negative integer, got '" + text + "'").c_str());
  return v;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = kPinnedDesSeed;
  double seconds = 20;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = find_workload(val);
      if (!a.workload) usage(("unknown workload '" + val + "'").c_str());
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, val);
    } else if (flag == "--seconds") {
      const auto s = parse_uint(flag, val);
      if (s < 1 || s > 3600) usage("--seconds must be in 1..3600");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.workload) usage("--workload is required");
  return a;
}

void print_metric(const char* name, double value, const char* unit) {
  std::printf("  %-32s %16.9g %s\n", name, value, unit);
}

}  // namespace

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZED 1
#endif

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || defined(PERFBENCH_SANITIZED)
  // A Debug, assert-enabled or sanitizer number must never be reported.
  std::fprintf(stderr,
               "ccref_perfbench: refusing to report from a build without "
               "optimisation, with NDEBUG unset or with a sanitizer (build "
               "type '%s')\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const Args args = parse(argc, argv);
  const Workload& w = *args.workload;
  const auto* vspec = std::get_if<VerifySpec>(&w.spec);
  const auto* dspec = std::get_if<DesSpec>(&w.spec);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const bool parallel = vspec && vspec->parallel;
  const unsigned jobs = parallel ? std::max(1u, nproc - 1) : 1;

  // ---- run record ------------------------------------------------------
  std::printf("# workload %s: %s\n", w.name.c_str(), w.why.c_str());
  std::printf(
      "# run: nproc=%u jobs=%u memory_budget_mb=%s des_seed=%s seed=%llu "
      "seconds=%.0f trace=%d compiler=\"%s\" build_type=%s\n",
      nproc, jobs,
      vspec ? std::to_string(vspec->memory_limit >> 20).c_str() : "none",
      dspec ? std::to_string(args.seed).c_str() : "unused",
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kCompiler, PERFBENCH_BUILD_TYPE);
  if (vspec)
    std::printf("# the seed is unused: exhaustive BFS has no randomness\n");

  // ---- repetitions until the time is spent -----------------------------
  std::vector<Values> setups;
  auto time_setups = [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSetupBurst && since(t0) < kSetupBurstSeconds;
         ++i)
      setups.push_back(time_setup(w, args.seed));
  };

  std::vector<Values> plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::uint64_t count_a = 0, count_b = 0;
  bool counts_agree = true;
  auto record = [&](Rep rep, bool is_traced) {
    std::printf("rep %zu%s: run_s=%.6f setup_s=%.6f counts=%llu/%llu%s\n",
                plain.size() + traced.size() + 1, is_traced ? " traced" : "",
                rep.values["run_s"], rep.values["setup_s"],
                static_cast<unsigned long long>(rep.count_a),
                static_cast<unsigned long long>(rep.count_b),
                rep.errors.empty() ? "" : " FAILED");
    for (const auto& e : rep.errors) std::printf("  error: %s\n", e.c_str());
    // Every repetition of one invocation sees the same input, so traced
    // and untraced runs must agree exactly.
    if (plain.empty() && traced.empty()) {
      count_a = rep.count_a;
      count_b = rep.count_b;
    } else if (rep.count_a != count_a || rep.count_b != count_b) {
      counts_agree = false;
    }
    attempted += rep.attempted;
    failed += rep.failed;
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    (is_traced ? traced : plain).push_back(std::move(rep.values));
  };

  // ref_s[i] and ref_s[i + 1] bracket the i-th untraced repetition.
  HostReference host;
  auto burst = [&host] {
    try {
      return host.run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ccref_perfbench: %s\n", e.what());
      std::exit(1);
    }
  };
  std::vector<double> ref_s;
  const auto start = Clock::now();
  double last = 0;  // wall time of the previous repetition (or pair)
  do {
    const auto t0 = Clock::now();
    time_setups();
    ref_s.push_back(burst());
    record(run_rep(w, args.seed, jobs, false), false);
    if (args.trace) record(run_rep(w, args.seed, jobs, true), true);
    last = since(t0);
  } while (since(start) + last <= args.seconds);
  ref_s.push_back(burst());
  const double rss = peak_rss_mb();
  std::printf("# host reference bursts (s):");
  for (const double r : ref_s) std::printf(" %.4f", r);
  std::printf("\n");

  std::vector<double> run_ref, throughput_ref;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const double ref = (ref_s[i] + ref_s[i + 1]) / 2;
    run_ref.push_back(plain[i].at("run_s") / ref);
    throughput_ref.push_back(plain[i].at("throughput_per_s") * ref);
  }

  // par_explore must agree with the sequential engine on the same input.
  if (parallel) {
    const auto seq = explore_seq(w);
    std::printf("# seq explore cross-check: %zu/%zu\n", seq.states,
                seq.transitions);
    if (seq.states != count_a || seq.transitions != count_b) {
      errors.push_back("par_explore counts differ from seq explore");
      counts_agree = false;
    }
  }
  if (!counts_agree) errors.push_back("repetitions disagree on counts");

  // ---- report ------------------------------------------------------------
  Values e2e;
  e2e["setup_s"] = median_of(setups, "setup_s");
  e2e["run_ref"] = median(run_ref);
  e2e["throughput_per_ref"] = median(throughput_ref);
  e2e["peak_rss_mb"] = rss;
  const double failed_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;
  std::printf("end-to-end (medians of %zu untraced repetitions, %zu set-ups)"
              ":\n",
              plain.size(), setups.size());
  for (const auto& m : end_to_end_metrics())
    print_metric(m.name, e2e[m.name], m.unit);
  print_metric("run_s", median_of(plain, "run_s"), "s");
  print_metric("throughput_per_s", median_of(plain, "throughput_per_s"),
               "1/s");
  print_metric("host.ref_s", median(ref_s), "s");
  if (vspec) {
    print_metric("states_per_s", median_of(plain, "states_per_s"), "1/s");
    print_metric("state_mem_mb", median_of(plain, "state_mem_mb"), "MB");
  } else {
    print_metric("events_per_s", median_of(plain, "events_per_s"), "1/s");
  }
  print_metric("failed_frac", failed_frac, "ratio");

  Values layers;
  if (args.trace) {
    for (const auto& m : per_layer_metrics())
      layers[m.name] = median_of(traced, m.name);
    layers["protocols.build_s"] = median_of(setups, "protocols.build_s");
    layers["refine.refine_s"] = median_of(setups, "refine.refine_s");
    layers["host.ref_s"] = median(ref_s);
    layers["trace.overhead_frac"] =
        layers["trace.run_s"] / median_of(plain, "run_s") - 1;
    std::printf("per-layer (medians of %zu traced repetitions):\n",
                traced.size());
    for (const auto& m : per_layer_metrics())
      print_metric(m.name, layers[m.name], m.unit);
  }

  const bool correct = errors.empty();
  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  const Values& vals = args.trace ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name, vals.at(defs[i].name),
                defs[i].unit);
  std::printf("}}\n");
  return correct && failed == 0 ? 0 : 1;
}
