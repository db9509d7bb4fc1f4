// Tests for workload-driven simulation on the discrete-event engine under
// the "uniform" cost preset: determinism, completion, message accounting
// (the §3.3 fusion savings and the §5 hand-design comparison), buffer-size
// effects (§6), fairness measurement, and stall diagnostics.
#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "sim/des.hpp"

namespace ccref::sim {
namespace {

using refine::Options;

DesStats run(const refine::RefinedProtocol& rp, const Workload& w,
             std::uint64_t max_events = 0) {
  WorkloadSource src(w);
  DesOptions d;
  d.cost = *CostModel::preset("uniform");
  d.max_events = max_events;
  return des_simulate(rp, src, d);
}

DesStats run_migratory(int n, int cycles, Options opts = {}) {
  opts.channel_capacity = 8;  // simulation approximates the infinite network
  auto p = protocols::make_migratory();
  return run(refine::refine(p, opts), migratory_workload(p, n, cycles));
}

DesStats run_invalidate(int n, int ops, double write_fraction,
                        std::uint64_t seed) {
  Options opts;
  opts.channel_capacity = 8;
  auto p = protocols::make_invalidate();
  return run(refine::refine(p, opts),
             invalidate_workload(p, n, ops, write_fraction, seed));
}

TEST(Sim, MigratorySingleRemoteCompletes) {
  auto stats = run_migratory(1, 10);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 20u);  // 10 acquires + 10 releases
  EXPECT_EQ(stats.nodes[0].completed, 20u);
}

TEST(Sim, MigratoryManyRemotesComplete) {
  auto stats = run_migratory(6, 5);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 60u);
}

TEST(Sim, DeterministicForSeed) {
  // The engine itself has no randomness: the same workload gives the same
  // run, event for event. The invalidate workload's seed picks its reads
  // and writes, so a different seed gives a different run.
  auto a = run_invalidate(4, 10, 0.5, 99);
  auto b = run_invalidate(4, 10, 0.5, 99);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.messages(), b.messages());
  auto c = run_invalidate(4, 10, 0.5, 100);
  EXPECT_TRUE(a.events != c.events || a.messages() != c.messages());
}

TEST(Sim, SingleRemoteMessageCountsAreExact) {
  // One remote, no contention: each acquire is the fused req/gr pair
  // (2 messages), each release is LR + ack (2 messages). No nacks.
  auto stats = run_migratory(1, 10);
  EXPECT_EQ(stats.req, 20u);   // 10 req + 10 LR
  EXPECT_EQ(stats.repl, 10u);  // 10 gr
  EXPECT_EQ(stats.ack, 10u);   // 10 LR acks
  EXPECT_EQ(stats.nack, 0u);
  EXPECT_DOUBLE_EQ(stats.msgs_per_op(), 2.0);
}

TEST(Sim, FusionSavesMessages) {
  Options fused;
  Options plain;
  plain.request_reply_fusion = false;
  auto with = run_migratory(4, 10, fused);
  auto without = run_migratory(4, 10, plain);
  ASSERT_TRUE(with.finished) << with.stall;
  ASSERT_TRUE(without.finished) << without.stall;
  // The generic scheme needs an explicit ack per rendezvous; fusion halves
  // the message count for the req/gr and inv/ID pairs.
  EXPECT_LT(with.msgs_per_op(), without.msgs_per_op());
  EXPECT_GT(without.ack, with.ack);
}

TEST(Sim, HandDesignSavesTheLRAck) {
  Options refined;
  Options hand;
  hand.elide_ack = {"LR"};
  auto a = run_migratory(1, 20, refined);
  auto b = run_migratory(1, 20, hand);
  ASSERT_TRUE(a.finished) << a.stall;
  ASSERT_TRUE(b.finished) << b.stall;
  // Exactly one ack per release disappears; the paper: "the loss of
  // efficiency due to the extra ack is small".
  EXPECT_EQ(a.ack - b.ack, 20u);
  EXPECT_EQ(a.req, b.req);
  EXPECT_EQ(a.repl, b.repl);
}

TEST(Sim, ContentionCausesNacksWithMinimalBuffer) {
  // k=2 with many contending remotes must produce nacks (requests bounce).
  auto stats = run_migratory(8, 10);
  ASSERT_TRUE(stats.finished) << stats.stall;
  EXPECT_GT(stats.nack, 0u);
}

TEST(Sim, LargerBufferReducesNacks) {
  Options small;  // k = 2
  Options big;
  big.home_buffer_capacity = 9;
  auto a = run_migratory(8, 10, small);
  auto b = run_migratory(8, 10, big);
  ASSERT_TRUE(a.finished) << a.stall;
  ASSERT_TRUE(b.finished) << b.stall;
  EXPECT_LT(b.nack, a.nack);
}

TEST(Sim, FairnessIndexReasonableUnderContention) {
  auto stats = run_migratory(6, 10);
  ASSERT_TRUE(stats.finished) << stats.stall;
  // Every remote completes its fixed workload, so the index is exactly 1;
  // the interesting spread shows up in latency instead.
  EXPECT_DOUBLE_EQ(stats.fairness_index(), 1.0);
  std::uint64_t max_latency = 0;
  for (const auto& r : stats.nodes)
    max_latency = std::max(max_latency, r.latency_max);
  EXPECT_GT(max_latency, 0u);
  EXPECT_EQ(max_latency, stats.latency.max());
}

TEST(Sim, InvalidateWorkloadCompletes) {
  auto stats = run_invalidate(4, 10, 0.3, 42);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 80u);
  EXPECT_GT(stats.completions, 0u);
}

TEST(Sim, InvalidateReadsShareWritesExclude) {
  // All-read workload completes with strictly fewer messages than all-write
  // (no invalidation sweeps needed).
  auto reads = run_invalidate(4, 10, 0.0, 42);
  auto writes = run_invalidate(4, 10, 1.0, 42);
  ASSERT_TRUE(reads.finished) << reads.stall;
  ASSERT_TRUE(writes.finished) << writes.stall;
  EXPECT_LT(reads.messages(), writes.messages());
}

TEST(Sim, WorkloadGeneratorShapes) {
  auto p = protocols::make_migratory();
  auto w = migratory_workload(p, 3, 4);
  ASSERT_EQ(w.per_remote.size(), 3u);
  EXPECT_EQ(w.total_ops(), 24u);
  EXPECT_EQ(w.per_remote[0][0].name, "acquire");
  EXPECT_EQ(w.per_remote[0][1].name, "release");

  auto iv = protocols::make_invalidate();
  auto wi = invalidate_workload(iv, 2, 50, 0.5, 1);
  int writes = 0;
  for (const auto& op : wi.per_remote[0])
    if (op.name == "write") ++writes;
  EXPECT_GT(writes, 10);
  EXPECT_LT(writes, 40);
}

TEST(Sim, StallReportedWhenWorkloadImpossible) {
  // An op whose goal can never be reached (D1 needs an invalidation, but
  // there is no second remote) must end within the event budget and report
  // a stall.
  auto p = protocols::make_migratory();
  Workload w;
  w.vocabulary = {"req", "evict"};
  w.per_remote.resize(1);
  w.per_remote[0].push_back(
      {"impossible", {"req"}, p.remote.find_state("D1")});
  auto stats = run(refine::refine(p), w, /*max_events=*/1000);
  EXPECT_FALSE(stats.finished);
  EXPECT_LE(stats.events, 1000u);
  ASSERT_TRUE(stats.stall.stalled());
  // The structured diagnostics name the wedged op and where it sits.
  EXPECT_EQ(stats.stall.op, "impossible");
  EXPECT_EQ(stats.stall.remote, 0);
  EXPECT_NE(stats.stall.to_string().find("impossible"), std::string::npos);
}

TEST(Sim, ObligatoryActionsAreNeverGated) {
  // A remote whose workload is exhausted must still answer invalidations:
  // r0 acquires then goes quiet holding the line; r1's acquire triggers an
  // inv that r0 must answer despite having no ops left.
  auto p = protocols::make_migratory();
  Workload w;
  w.vocabulary = {"req", "evict"};
  w.per_remote.resize(2);
  const ir::StateId goal_v = p.remote.find_state("V");
  w.per_remote[0].push_back({"acquire", {"req"}, goal_v});
  w.per_remote[1].push_back({"acquire", {"req"}, goal_v});
  auto stats = run(refine::refine(p), w);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 2u);
}

// The paper's message-economy claims, on the E-MSG and E-BUF
// configurations: the uncontended costs are exact (3 / 2 / 1.5 messages per
// op for generic / refined / hand design), the hand design never sends an
// ack, fusion always saves messages, and a home buffer with a slot per
// remote (k >= n) never nacks (§6).
TEST(Sim, PaperClaimsUnderUniformCosts) {
  Options generic;
  generic.request_reply_fusion = false;
  Options refined;
  Options hand;
  hand.elide_ack = {"LR"};
  auto g1 = run_migratory(1, 50, generic);
  auto r1 = run_migratory(1, 50, refined);
  auto h1 = run_migratory(1, 50, hand);
  EXPECT_DOUBLE_EQ(g1.msgs_per_op(), 3.0);
  EXPECT_DOUBLE_EQ(r1.msgs_per_op(), 2.0);
  EXPECT_DOUBLE_EQ(h1.msgs_per_op(), 1.5);
  for (int n : {1, 4, 8}) {
    auto g = run_migratory(n, 10, generic);
    auto r = run_migratory(n, 10, refined);
    auto h = run_migratory(n, 10, hand);
    ASSERT_TRUE(g.finished && r.finished && h.finished) << n;
    EXPECT_EQ(h.ack, 0u) << n;
    EXPECT_GT(g.msgs_per_op(), r.msgs_per_op()) << n;
  }
  for (int k : {8, 9}) {
    Options buffered;
    buffered.home_buffer_capacity = k;
    auto s = run_migratory(8, 10, buffered);
    ASSERT_TRUE(s.finished) << s.stall;
    EXPECT_EQ(s.nack, 0u) << "k=" << k;
  }
}

}  // namespace
}  // namespace ccref::sim
