#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "sim/des.hpp"
#include "traced.hpp"
#include "verify/par_checker.hpp"

namespace perfbench {

using namespace ccref;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr double kMB = 1e6;

// ---- set-up ------------------------------------------------------------

struct SetupTimes {
  double build_s = 0, refine_s = 0, setup_s = 0;

  void into(Values& v) const {
    v["protocols.build_s"] = build_s;
    v["refine.refine_s"] = refine_s;
    v["setup_s"] = setup_s;
  }
};

// Members are constructed in place and never move: the refined protocol
// points at `protocol`, the systems at both.
struct VerifySetup {
  explicit VerifySetup(ir::Protocol p) : protocol(std::move(p)) {}

  ir::Protocol protocol;
  std::optional<refine::RefinedProtocol> refined;
  std::optional<runtime::AsyncSystem> async;
  std::optional<sem::RendezvousSystem> rendezvous;
  SetupTimes times;
};

std::unique_ptr<VerifySetup> setup_verify(const VerifySpec& v) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<VerifySetup>(
      v.protocol == VerifySpec::Protocol::Migratory
          ? protocols::make_migratory()
          : protocols::make_invalidate());
  s->times.build_s = since(t0);
  if (v.semantics == VerifySpec::Semantics::Async) {
    const auto t1 = Clock::now();
    s->refined.emplace(refine::refine(s->protocol));
    s->times.refine_s = since(t1);
    s->async.emplace(*s->refined, v.remotes);
  } else {
    s->rendezvous.emplace(s->protocol, v.remotes);
  }
  s->times.setup_s = since(t0);
  return s;
}

struct DesSetup {
  explicit DesSetup(ir::Protocol p) : protocol(std::move(p)) {}

  ir::Protocol protocol;
  std::optional<refine::RefinedProtocol> refined;
  std::optional<sim::SyntheticSource> source;
  SetupTimes times;
};

std::unique_ptr<DesSetup> setup_des(const DesSpec& d, std::uint64_t seed) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<DesSetup>(protocols::make_lock_server());
  s->times.build_s = since(t0);
  const auto t1 = Clock::now();
  refine::Options opts;
  opts.channel_capacity = 8;  // bench_sim's lock_server configuration
  s->refined.emplace(refine::refine(s->protocol, opts));
  s->times.refine_s = since(t1);
  sim::SyntheticConfig cfg;
  cfg.kind = "lock_server";
  cfg.nodes = d.clients;
  cfg.ops_per_node = d.pairs;
  cfg.addresses = d.locks;
  cfg.think_mean = d.think;
  cfg.arrival_window = 4 * static_cast<std::uint64_t>(d.clients);
  cfg.seed = seed;
  s->source.emplace(s->protocol, cfg);
  s->times.setup_s = since(t0);
  return s;
}

// ---- verification ------------------------------------------------------

template <class Sys>
verify::CheckResult check(const Sys& sys, const VerifySpec& v,
                          unsigned jobs) {
  verify::CheckOptions<Sys> o;
  o.memory_limit = v.memory_limit;
  o.want_trace = false;
  o.symmetry = v.symmetry;
  o.por = v.por;
  o.compress = v.compress;
  return v.parallel ? verify::par_explore(sys, o, jobs)
                    : verify::explore(sys, o);
}

// Per-layer values of one traced verification run. `sys_layer` is
// "runtime." or "sem.": the layer the wrapped system belongs to.
void verify_layers(Values& out, const std::string& sys_layer,
                   const std::vector<LayerCounters>& slots,
                   const verify::CheckResult& r, double run_s,
                   unsigned workers) {
  LayerCounters sum;
  std::uint64_t max_exp = 0, busy_workers = 0;
  for (const auto& s : slots) {
    sum.add(s);
    max_exp = std::max(max_exp, s.expansions());
    if (s.expansions() > 0) ++busy_workers;
  }
  const double calls = static_cast<double>(sum.expansions());
  out[sys_layer + "successors_s"] = sum.successors_s;
  out[sys_layer + "successors_calls"] = calls;
  out[sys_layer + "edges_per_call"] =
      ratio(static_cast<double>(sum.edges), calls);
  out[sys_layer + "encode_s"] = sum.encode_s;
  out[sys_layer + "encode_bytes_per_call"] =
      ratio(static_cast<double>(sum.encode_bytes),
            static_cast<double>(sum.encode_calls));
  out[sys_layer + "decode_s"] = sum.decode_s;
  if (sys_layer == "runtime.") {
    out["runtime.encode_calls"] = static_cast<double>(sum.encode_calls);
    out["runtime.canonicalize_s"] = sum.canonicalize_s;
    out["runtime.canonicalize_calls"] =
        static_cast<double>(sum.canonicalize_calls);
    out["runtime.successors_por_s"] = sum.successors_por_s;
  }
  const double w = static_cast<double>(workers);
  out["verify.self_s"] = run_s - sum.total_s() / w;
  out["verify.states"] = static_cast<double>(r.states);
  out["verify.transitions"] = static_cast<double>(r.transitions);
  out["verify.new_state_ratio"] =
      ratio(static_cast<double>(r.states) - 1,
            static_cast<double>(r.transitions));
  out["verify.ample_ratio"] = ratio(static_cast<double>(r.transitions),
                                    static_cast<double>(sum.edges));
  out["verify.bytes_per_state"] = ratio(static_cast<double>(r.memory_bytes),
                                        static_cast<double>(r.states));
  out["verify.compression_ratio"] = ratio(
      static_cast<double>(r.raw_pool_bytes), static_cast<double>(r.pool_bytes));
  out["verify.waste_bytes"] = static_cast<double>(r.waste_bytes);
  out["verify.state_mem_mb"] = static_cast<double>(r.memory_bytes) / kMB;
  out["par.workers"] = static_cast<double>(busy_workers);
  out["par.sys_busy_frac"] = ratio(sum.total_s(), w * run_s);
  out["par.expansion_imbalance"] =
      ratio(static_cast<double>(max_exp), calls / w);
}

template <class Sys>
void verify_run(Rep& rep, const Sys& sys, const VerifySpec& v, unsigned jobs,
                bool traced, const std::string& sys_layer) {
  verify::CheckResult r;
  double run_s = 0;
  std::vector<LayerCounters> slots;
  if (traced) {
    TracedSystem<Sys> ts(sys);
    const auto t0 = Clock::now();
    r = check(ts, v, jobs);
    run_s = since(t0);
    slots = ts.slots();
  } else {
    const auto t0 = Clock::now();
    r = check(sys, v, jobs);
    run_s = since(t0);
  }
  rep.values["run_s"] = run_s;
  rep.values["states_per_s"] = ratio(static_cast<double>(r.states), run_s);
  rep.values["throughput_per_s"] = rep.values["states_per_s"];
  rep.values["state_mem_mb"] = static_cast<double>(r.memory_bytes) / kMB;
  if (traced)
    verify_layers(rep.values, sys_layer, slots, r, run_s,
                  v.parallel ? jobs : 1);
  rep.count_a = r.states;
  rep.count_b = r.transitions;
  rep.attempted = 1;
  if (r.status != verify::Status::Ok)
    rep.errors.push_back(std::string("verdict ") + to_string(r.status) +
                         " (expected ok)");
  if (v.states != 0 && (r.states != v.states || r.transitions != v.transitions))
    rep.errors.push_back("counts " + std::to_string(r.states) + "/" +
                         std::to_string(r.transitions) + " (pinned " +
                         std::to_string(v.states) + "/" +
                         std::to_string(v.transitions) + ")");
  rep.failed = rep.errors.empty() ? 0 : 1;
}

// ---- discrete-event simulation ----------------------------------------

void des_run(Rep& rep, DesSetup& s, const DesSpec& d, std::uint64_t seed,
             bool traced) {
  sim::DesOptions opts;
  opts.lanes = d.lanes;
  sim::DesStats st;
  double run_s = 0;
  std::vector<LayerCounters> slots;
  if (traced) {
    TracedSource src(*s.source);
    const auto t0 = Clock::now();
    st = sim::des_simulate(*s.refined, src, opts);
    run_s = since(t0);
    slots = src.slots();
  } else {
    const auto t0 = Clock::now();
    st = sim::des_simulate(*s.refined, *s.source, opts);
    run_s = since(t0);
  }
  const double events = static_cast<double>(st.events);
  rep.values["run_s"] = run_s;
  rep.values["events_per_s"] = ratio(events, run_s);
  rep.values["throughput_per_s"] = rep.values["events_per_s"];
  if (traced) {
    LayerCounters sum;
    for (const auto& c : slots) sum.add(c);
    Values& v = rep.values;
    v["sim.self_s"] = run_s - sum.next_s;
    v["sim.ns_per_event"] = ratio(run_s * 1e9, events);
    v["sim.source_next_s"] = sum.next_s;
    v["sim.source_next_calls"] = static_cast<double>(sum.next_calls);
    v["sim.events"] = events;
    v["sim.messages"] = static_cast<double>(st.messages());
    v["sim.instances"] = static_cast<double>(st.instances);
    v["sim.windows"] = static_cast<double>(st.windows);
    v["par.workers"] = d.lanes;
    v["par.sys_busy_frac"] = ratio(sum.next_s, d.lanes * run_s);
    v["par.expansion_imbalance"] = 1;
  }
  rep.count_a = st.events;
  rep.count_b = st.cycles;

  // One operation per client op. Ops the run did not complete fail.
  const std::uint64_t expected = d.expected_ops();
  rep.attempted = expected;
  rep.failed = expected - std::min(st.ops_total, expected);
  auto fail = [&](std::string msg) { rep.errors.push_back(std::move(msg)); };
  if (!st.finished) fail("run did not finish");
  if (st.stall.stalled()) fail("stall: " + st.stall.to_string());
  if ((!st.finished || st.stall.stalled()) && rep.failed == 0) rep.failed = 1;
  if (st.ops_total != expected)
    fail("ops_total " + std::to_string(st.ops_total) + " (expected " +
         std::to_string(expected) + ")");

  // Seed-independent invariants of the lock_server protocol: every op is
  // one request and one reply, and every client completes its program.
  if (st.messages() != 2 * st.ops_total)
    fail("messages " + std::to_string(st.messages()) + " != 2 x ops");
  if (st.latency.count() != st.ops_total)
    fail("latency samples " + std::to_string(st.latency.count()) +
         " != ops");
  std::uint64_t short_nodes = 0;
  for (const auto& n : st.nodes)
    if (n.completed != 2 * std::uint64_t{d.pairs}) ++short_nodes;
  if (st.nodes.size() != d.clients || short_nodes != 0)
    fail(std::to_string(short_nodes) + " clients did not complete " +
         std::to_string(2 * d.pairs) + " ops");

  // The simulator is deterministic: at the pinned seed every figure is
  // known exactly.
  if (seed == kPinnedDesSeed && d.events != 0) {
    const std::uint64_t p50 = st.latency.percentile(0.5);
    const std::uint64_t p99 = st.latency.percentile(0.99);
    if (st.events != d.events || st.cycles != d.cycles || p50 != d.p50 ||
        p99 != d.p99)
      fail("events/cycles/p50/p99 " + std::to_string(st.events) + "/" +
           std::to_string(st.cycles) + "/" + std::to_string(p50) + "/" +
           std::to_string(p99) + " (pinned " + std::to_string(d.events) +
           "/" + std::to_string(d.cycles) + "/" + std::to_string(d.p50) +
           "/" + std::to_string(d.p99) + ")");
  }
}

// ---- the engines' search is selected by concepts; the wrapper must not
// change which ones hold ------------------------------------------------

// A system with only the base interface: the wrapper must not invent the
// optional members for it.
struct BareSystem {
  using State = int;
  State initial() const;
  std::vector<std::pair<State, sem::Label>> successors(const State&) const;
  void encode(const State&, ByteSink&) const;
  State decode(ByteSource&) const;
  std::string describe(const State&) const;
};

template <class S>
constexpr bool kSameSearch =
    verify::detail::HasLabelMode<TracedSystem<S>> ==
        verify::detail::HasLabelMode<S> &&
    verify::detail::HasCanonicalize<TracedSystem<S>> ==
        verify::detail::HasCanonicalize<S> &&
    verify::detail::HasPor<TracedSystem<S>> == verify::detail::HasPor<S>;

static_assert(kSameSearch<runtime::AsyncSystem>);
static_assert(kSameSearch<sem::RendezvousSystem>);
static_assert(kSameSearch<BareSystem>);
static_assert(verify::detail::HasPor<TracedSystem<runtime::AsyncSystem>>);
static_assert(!verify::detail::HasPor<TracedSystem<sem::RendezvousSystem>>);
static_assert(!verify::detail::HasLabelMode<TracedSystem<BareSystem>>);

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_ref", "ref"},
      {"throughput_per_ref", "1/ref"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"runtime.successors_s", "s"},
      {"runtime.successors_calls", "count"},
      {"runtime.edges_per_call", "edges/call"},
      {"runtime.encode_s", "s"},
      {"runtime.encode_calls", "count"},
      {"runtime.encode_bytes_per_call", "bytes/call"},
      {"runtime.decode_s", "s"},
      {"runtime.canonicalize_s", "s"},
      {"runtime.canonicalize_calls", "count"},
      {"runtime.successors_por_s", "s"},
      {"sem.successors_s", "s"},
      {"sem.successors_calls", "count"},
      {"sem.edges_per_call", "edges/call"},
      {"sem.encode_s", "s"},
      {"sem.encode_bytes_per_call", "bytes/call"},
      {"sem.decode_s", "s"},
      {"verify.self_s", "s"},
      {"verify.states", "count"},
      {"verify.transitions", "count"},
      {"verify.new_state_ratio", "ratio"},
      {"verify.ample_ratio", "ratio"},
      {"verify.bytes_per_state", "bytes"},
      {"verify.compression_ratio", "ratio"},
      {"verify.waste_bytes", "bytes"},
      {"verify.state_mem_mb", "MB"},
      {"par.workers", "count"},
      {"par.sys_busy_frac", "ratio"},
      {"par.expansion_imbalance", "ratio"},
      {"sim.self_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"sim.source_next_s", "s"},
      {"sim.source_next_calls", "count"},
      {"sim.events", "count"},
      {"sim.messages", "count"},
      {"sim.instances", "count"},
      {"sim.windows", "count"},
      {"protocols.build_s", "s"},
      {"refine.refine_s", "s"},
      {"trace.run_s", "s"},
      {"host.ref_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

const std::vector<Workload>& workloads() {
  using VS = VerifySpec;
  static const std::vector<Workload> list = {
      {"async-full",
       "async migratory N=5, seq explore, full storage: runtime "
       "successors/encode/decode plus the seq StateSet",
       VerifySpec{.semantics = VS::Semantics::Async,
                  .protocol = VS::Protocol::Migratory,
                  .remotes = 5,
                  .memory_limit = 64u << 20,
                  .states = 436825,
                  .transitions = 2060125}},
      {"async-reduced",
       "async invalidate N=4, seq explore with symmetry, POR and COLLAPSE: "
       "canonicalize, successors_por and the COLLAPSE dictionaries",
       VerifySpec{.semantics = VS::Semantics::Async,
                  .protocol = VS::Protocol::Invalidate,
                  .remotes = 4,
                  .symmetry = verify::SymmetryMode::Canonical,
                  .por = verify::PorMode::Ample,
                  .compress = verify::CompressionMode::Collapse,
                  .memory_limit = 64u << 20,
                  .states = 52618,
                  .transitions = 206080}},
      {"rendezvous-par",
       "rendezvous invalidate N=8, par_explore: sem, the lock-free sharded "
       "set and work stealing; bypasses runtime",
       VerifySpec{.semantics = VS::Semantics::Rendezvous,
                  .protocol = VS::Protocol::Invalidate,
                  .remotes = 8,
                  .parallel = true,
                  .memory_limit = 256u << 20,
                  .states = 1938057,
                  .transitions = 13159592}},
      {"des-lockserver",
       "open-loop lock_server DES, 40000 clients: the sim engine only; "
       "bypasses verify and AsyncSystem",
       DesSpec{.clients = 40000,
               .pairs = 4,
               .locks = 64,
               .think = 64,
               .lanes = 1,
               .events = 1600000,
               .cycles = 160700,
               .p50 = 8,
               .p99 = 351}},
  };
  return list;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Workload reduced(const Workload& w) {
  Workload r = w;
  if (auto* v = std::get_if<VerifySpec>(&r.spec)) {
    v->remotes = v->semantics == VerifySpec::Semantics::Async ? 3 : 5;
    v->states = v->transitions = 0;
  } else {
    auto& d = std::get<DesSpec>(r.spec);
    d.clients = 2000;
    d.events = d.cycles = d.p50 = d.p99 = 0;
  }
  return r;
}

Values time_setup(const Workload& w, std::uint64_t seed) {
  Values v;
  if (const auto* spec = std::get_if<VerifySpec>(&w.spec))
    setup_verify(*spec)->times.into(v);
  else
    setup_des(std::get<DesSpec>(w.spec), seed)->times.into(v);
  return v;
}

Rep run_rep(const Workload& w, std::uint64_t seed, unsigned jobs,
            bool traced) {
  Rep rep;
  if (traced)
    for (const auto& m : per_layer_metrics()) rep.values[m.name] = 0;
  if (const auto* v = std::get_if<VerifySpec>(&w.spec)) {
    auto s = setup_verify(*v);
    s->times.into(rep.values);
    if (s->async)
      verify_run(rep, *s->async, *v, jobs, traced, "runtime.");
    else
      verify_run(rep, *s->rendezvous, *v, jobs, traced, "sem.");
  } else {
    const auto& d = std::get<DesSpec>(w.spec);
    auto s = setup_des(d, seed);
    s->times.into(rep.values);
    des_run(rep, *s, d, seed, traced);
  }
  if (traced) rep.values["trace.run_s"] = rep.values["run_s"];
  return rep;
}

verify::CheckResult explore_seq(const Workload& w) {
  VerifySpec v = std::get<VerifySpec>(w.spec);
  v.parallel = false;
  auto s = setup_verify(v);
  return s->async ? check(*s->async, v, 1) : check(*s->rendezvous, v, 1);
}

}  // namespace perfbench
