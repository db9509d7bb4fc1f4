// External-memory visited tier (support/run_file.hpp +
// verify/external_set.hpp and the --external routing through collapse.hpp
// / checker.hpp / par_checker.hpp): run-file I/O discipline, the
// exactly-once admission guarantee of sorted-run delayed duplicate
// detection across cache evictions and merge generations, verdict/count
// agreement with the in-RAM reference across the engine x symmetry x POR
// matrix, counterexample traces replayed from the order log, the
// composition downgrade notes, and the payoff — runs that a 2 MB RAM
// budget leaves Unfinished reach exact verdicts once the table moves to
// disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/run_file.hpp"
#include "verify/checker.hpp"
#include "verify/external_set.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

namespace fs = std::filesystem;
using runtime::AsyncSystem;
using verify::ExternalVisitedSet;
using verify::MemoryBudget;
using verify::PorMode;
using verify::ResolveOutcome;
using verify::SymmetryMode;

/// Fresh per-test directory under the gtest temp root; removed on scope
/// exit so failed runs don't accrete run files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::path(::testing::TempDir()) /
           ("ccref-ext-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::vector<std::byte> rec_bytes(std::uint64_t id, std::size_t len = 24) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

// ---- RunFile ---------------------------------------------------------------

TEST(RunFile, AppendFlushReadRoundTrip) {
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t", /*buffer_bytes=*/64));
  ASSERT_TRUE(f.ok());
  // Appends larger and smaller than the buffer, to exercise both paths.
  std::vector<std::uint64_t> vals;
  for (std::uint64_t i = 0; i < 1000; ++i) vals.push_back(i * 0x9e37ull);
  for (std::uint64_t v : vals) ASSERT_TRUE(f.append(&v, sizeof(v)));
  EXPECT_EQ(f.bytes(), vals.size() * sizeof(std::uint64_t));
  ASSERT_TRUE(f.flush());
  // Positioned reads.
  std::uint64_t v = 0;
  ASSERT_TRUE(f.pread_at(500 * sizeof(v), &v, sizeof(v)));
  EXPECT_EQ(v, vals[500]);
  // Sequential reader sees every value, then reports a clean end.
  RunFile::Reader r(f, 128);
  for (std::uint64_t expect : vals) {
    ASSERT_TRUE(r.read(&v, sizeof(v)));
    ASSERT_EQ(v, expect);
  }
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.read(&v, sizeof(v)));
}

TEST(RunFile, FilesAreUnlinkedImmediately) {
  // The fd owns the blocks: the directory stays empty while the file is
  // live, so a crashed run leaks nothing.
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t"));
  std::size_t entries = 0;
  for ([[maybe_unused]] auto& e : fs::directory_iterator(dir.path)) ++entries;
  EXPECT_EQ(entries, 0u);
}

TEST(RunFile, ResetRestartsAppendsAtZero) {
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t"));
  std::uint64_t v = 7;
  ASSERT_TRUE(f.append(&v, sizeof(v)));
  ASSERT_TRUE(f.reset());
  EXPECT_EQ(f.bytes(), 0u);
  v = 11;
  ASSERT_TRUE(f.append(&v, sizeof(v)));
  ASSERT_TRUE(f.flush());
  std::uint64_t got = 0;
  ASSERT_TRUE(f.pread_at(0, &got, sizeof(got)));
  EXPECT_EQ(got, 11u);
  EXPECT_EQ(f.bytes(), sizeof(std::uint64_t));
}

TEST(RunFile, DeadWhenDirectoryImpossible) {
  // A path through /dev/null can never become a directory: open must fail
  // cleanly and every later operation must report failure, not crash.
  EXPECT_FALSE(ensure_run_dir("/dev/null/ccref-ext"));
  RunFile f;
  EXPECT_FALSE(f.open("/dev/null/ccref-ext", "t"));
  EXPECT_FALSE(f.ok());
  std::uint64_t v = 1;
  EXPECT_FALSE(f.append(&v, sizeof(v)));
}

// ---- ExternalVisitedSet ----------------------------------------------------

TEST(ExternalSet, CacheFrontHitIsExactAlreadyPresent) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 4;
  cfg.watermark = 1 << 20;  // never auto-ripe; this test resolves nothing
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  auto bytes = rec_bytes(1);
  EXPECT_EQ(set.insert(42, 0, bytes), ExternalVisitedSet::Outcome::Deferred);
  // The repeat probe hits the cache front: exact, nothing new queued.
  EXPECT_EQ(set.insert(42, 0, bytes),
            ExternalVisitedSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.pending(), 1u);
  EXPECT_GT(set.disk_bytes(), 0u);
  EXPECT_EQ(budget.used(), set.memory_used());
}

TEST(ExternalSet, ExactlyOnceAcrossCacheEvictionAndMerges) {
  // The admission guarantee under the worst case for the cache front: the
  // same fingerprint re-queued after eviction must be dropped by the merge
  // — first by batch-internal dedupe, then by the history run.
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;  // resolve manually
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());

  const std::uint64_t fp_a = 0x5555;
  auto enqueue_round = [&] {
    // fp_a, then 16 distinct fingerprints sharing its cache slot window
    // (same low bits): the 8-probe window is fully overwritten, so the
    // final re-insert of fp_a MISSES the cache and goes to disk again.
    EXPECT_NE(set.insert(fp_a, 0, rec_bytes(0)),
              ExternalVisitedSet::Outcome::Exhausted);
    for (std::uint64_t i = 1; i <= 16; ++i)
      EXPECT_NE(set.insert(fp_a + i * 1024, 0, rec_bytes(i)),
                ExternalVisitedSet::Outcome::Exhausted);
    ASSERT_EQ(set.insert(fp_a, 0, rec_bytes(0)),
              ExternalVisitedSet::Outcome::Deferred)
        << "cache eviction plan broke — fix the filler fingerprints";
  };

  enqueue_round();
  std::vector<std::uint64_t> admitted;
  auto collect = [&](std::uint32_t index, std::uint64_t fp, std::uint64_t,
                     std::span<const std::byte>) {
    EXPECT_EQ(index, admitted.size());
    admitted.push_back(fp);
  };
  ASSERT_EQ(set.resolve(false, collect), ResolveOutcome::Fresh);
  // 18 pending entries, 17 distinct fingerprints: batch dedupe kept the
  // first fp_a occurrence only.
  EXPECT_EQ(admitted.size(), 17u);
  EXPECT_EQ(set.size(), 17u);
  EXPECT_EQ(set.pending(), 0u);

  // Second generation: every fingerprint is now in the history run, so a
  // full re-enqueue must drain without a single fresh state.
  enqueue_round();
  admitted.clear();
  ASSERT_EQ(set.resolve(false, collect), ResolveOutcome::Drained);
  EXPECT_TRUE(admitted.empty());
  EXPECT_EQ(set.size(), 17u);
  EXPECT_GE(set.merge_passes(), 2u);
  EXPECT_EQ(budget.used(), set.memory_used());
}

TEST(ExternalSet, WatermarkGatesRipeResolve) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 2;  // high fingerprint bit routes the partition
  cfg.watermark = 8;
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  // Fill partition 0 past the watermark; partition 1 gets a single entry.
  for (std::uint64_t i = 1; i <= 8; ++i)
    ASSERT_EQ(set.insert(i * 2048, 0, rec_bytes(i)),
              ExternalVisitedSet::Outcome::Deferred);
  ASSERT_EQ(set.insert((std::uint64_t{1} << 63) | 3, 0, rec_bytes(99)),
            ExternalVisitedSet::Outcome::Deferred);
  EXPECT_TRUE(set.needs_resolve());
  std::size_t fresh = 0;
  ASSERT_EQ(set.resolve(/*only_ripe=*/true,
                        [&](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte>) { ++fresh; }),
            ResolveOutcome::Fresh);
  // Only the ripe partition was merged; the lone entry still waits.
  EXPECT_EQ(fresh, 8u);
  EXPECT_EQ(set.pending(), 1u);
  EXPECT_FALSE(set.needs_resolve());
  // The drain pass (only_ripe=false) flushes the rest.
  ASSERT_EQ(set.resolve(false,
                        [&](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte>) { ++fresh; }),
            ResolveOutcome::Fresh);
  EXPECT_EQ(fresh, 9u);
  EXPECT_EQ(set.pending(), 0u);
}

TEST(ExternalSet, OrderLogReplaysFingerprintAndParent) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;
  cfg.cache_slots = 1024;
  cfg.keep_order_log = true;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  for (std::uint64_t i = 1; i <= 50; ++i)
    ASSERT_EQ(set.insert(i * 7919, i - 1, rec_bytes(i)),
              ExternalVisitedSet::Outcome::Deferred);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  ASSERT_EQ(set.resolve(false,
                        [&](std::uint32_t index, std::uint64_t fp,
                            std::uint64_t parent, std::span<const std::byte>) {
                          EXPECT_EQ(index, seen.size());
                          seen.emplace_back(fp, parent);
                        }),
            ResolveOutcome::Fresh);
  ASSERT_EQ(seen.size(), 50u);
  // The order log serves random-access replay of exactly what resolve
  // delivered — the trace-reconstruction contract.
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(set.fingerprint_at(i), seen[i].first) << "index " << i;
    EXPECT_EQ(set.parent_at(i), seen[i].second) << "index " << i;
  }
}

TEST(ExternalSet, SurvivorBytesRoundTripThroughRecordFile) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  // Varying record lengths, so the stream framing is actually exercised.
  for (std::uint64_t i = 1; i <= 40; ++i)
    ASSERT_EQ(set.insert(i * 6151, 0, rec_bytes(i, 8 + (i % 5) * 16)),
              ExternalVisitedSet::Outcome::Deferred);
  std::size_t checked = 0;
  ASSERT_EQ(set.resolve(false,
                        [&](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte> bytes) {
                          ++checked;
                          auto expect =
                              rec_bytes(checked, 8 + (checked % 5) * 16);
                          ASSERT_EQ(bytes.size(), expect.size());
                          EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                                 bytes.begin()));
                        }),
            ResolveOutcome::Fresh);
  EXPECT_EQ(checked, 40u);
}

TEST(ExternalSet, DeadDirectoryReportsExhaustedNotCrash) {
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = "/dev/null/ccref-ext";
  cfg.partitions = 1;
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.insert(1, 0, rec_bytes(1)),
            ExternalVisitedSet::Outcome::Exhausted);
  EXPECT_EQ(set.resolve(false,
                        [](std::uint32_t, std::uint64_t, std::uint64_t,
                           std::span<const std::byte>) {}),
            ResolveOutcome::Failed);
}

// ---- agreement with the in-RAM reference across the matrix -----------------

template <class Sys>
verify::CheckResult check_ext(const Sys& sys, const std::string& dir,
                              PorMode por, SymmetryMode symmetry,
                              unsigned jobs) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.por = por;
  opts.symmetry = symmetry;
  opts.memory_limit = 512u << 20;
  if (!dir.empty()) opts.external.dir = dir;
  return verify::check(sys, opts, jobs);
}

void expect_ext_agreement(const ir::Protocol& p, int n, const char* what) {
  // At these sizes the fingerprint birthday bound is ~1e-14: a collision
  // in-test would be a hash bug, not bad luck. The external tier forces
  // POR off (deferred duplicate detection hides revisits from the ample
  // cycle proviso), so the reference is always the por=Off RAM run; when
  // Ample was requested the downgrade must be SAID, and counts must still
  // match the por=Off reference exactly.
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, n);
  TempDir dir;
  for (unsigned jobs : {1u, 4u}) {
    for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
      auto ref = check_ext(sys, "", PorMode::Off, sym, jobs);
      ASSERT_EQ(ref.status, verify::Status::Ok)
          << what << " jobs=" << jobs;
      for (auto por : {PorMode::Off, PorMode::Ample}) {
        auto ext = check_ext(sys, dir.path.string(), por, sym, jobs);
        EXPECT_EQ(ext.status, verify::Status::Ok)
            << what << " jobs=" << jobs << " note: " << ext.note;
        EXPECT_EQ(ext.states, ref.states) << what << " jobs=" << jobs;
        EXPECT_EQ(ext.transitions, ref.transitions)
            << what << " jobs=" << jobs;
        EXPECT_GT(ext.external_bytes, 0u) << what;
        EXPECT_GT(ext.omission_probability, 0.0) << what;
        EXPECT_LT(ext.omission_probability, 1e-9) << what;
        if (por == PorMode::Ample) {
          EXPECT_NE(ext.note.find("por downgraded"), std::string::npos)
              << what << " note: " << ext.note;
        }
      }
    }
  }
}

TEST(ExternalAgreement, Migratory) {
  expect_ext_agreement(protocols::make_migratory(), 3, "migratory");
}

TEST(ExternalAgreement, Invalidate) {
  expect_ext_agreement(protocols::make_invalidate(), 2, "invalidate");
}

TEST(ExternalAgreement, WriteUpdate) {
  expect_ext_agreement(protocols::make_write_update(), 2, "writeupdate");
}

TEST(ExternalAgreement, LockServer) {
  expect_ext_agreement(protocols::make_lock_server(), 3, "lockserver");
}

// ---- composition notes -----------------------------------------------------

TEST(ExternalComposition, CompressRequestIsNotedAndIgnored) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.compress = verify::CompressionMode::Collapse;
  opts.external.dir = dir.path.string();
  for (unsigned jobs : {1u, 2u}) {
    auto r = verify::check(sys, opts, jobs);
    EXPECT_EQ(r.status, verify::Status::Ok) << "jobs=" << jobs;
    EXPECT_NE(r.note.find("hash"), std::string::npos)
        << "jobs=" << jobs << " note: " << r.note;
  }
}

TEST(ExternalComposition, HashCompactIsSubsumed) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.hash_compact = true;
  opts.external.dir = dir.path.string();
  for (unsigned jobs : {1u, 2u}) {
    auto r = verify::check(sys, opts, jobs);
    EXPECT_EQ(r.status, verify::Status::Ok) << "jobs=" << jobs;
    EXPECT_NE(r.note.find("subsumed"), std::string::npos)
        << "jobs=" << jobs << " note: " << r.note;
  }
}

// ---- traces stay exact through the order log -------------------------------

TEST(ExternalTrace, ViolationTraceMatchesRamStorage) {
  // The external tier stores fingerprints, not states: the trace is
  // re-concretized by replaying real transitions whose fingerprints match
  // the order log's parent chain, so seq labels must be identical to the
  // RAM-storage trace, step for step.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckResult results[2];
  int i = 0;
  for (bool external : {false, true}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = true;
    if (external) opts.external.dir = dir.path.string();
    opts.invariant = [&sys](const runtime::AsyncState& s) {
      return s.remotes[0].state != sys.initial().remotes[0].state
                 ? "remote 0 left its initial state"
                 : std::string();
    };
    results[i++] = verify::explore(sys, opts);
  }
  ASSERT_EQ(results[0].status, verify::Status::InvariantViolated);
  EXPECT_EQ(results[1].status, results[0].status);
  EXPECT_EQ(results[1].violation, results[0].violation);
  ASSERT_FALSE(results[0].trace.empty());
  EXPECT_EQ(results[1].trace, results[0].trace);
}

TEST(ExternalTrace, ParallelViolationTraceIsValid) {
  // Parallel BFS order is nondeterministic, so the trace may differ from
  // the sequential one — but it must exist, start at the initial state,
  // and end in the reported violation.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = true;
  opts.external.dir = dir.path.string();
  opts.invariant = [&sys](const runtime::AsyncState& s) {
    return s.remotes[0].state != sys.initial().remotes[0].state
               ? "remote 0 left its initial state"
               : std::string();
  };
  auto r = verify::par_explore(sys, opts, 4);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  EXPECT_EQ(r.violation, "remote 0 left its initial state");
  ASSERT_FALSE(r.trace.empty());
  EXPECT_NE(r.trace.front().find("initial"), std::string::npos)
      << "trace head: " << r.trace.front();
}

// ---- the payoff: disk finishes where the RAM budget cannot -----------------

TEST(ExternalEndToEnd, BreaksTheRamWallSequentialAndParallel) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.detect_deadlock = false;
  opts.memory_limit = 2u << 20;

  auto walled = verify::explore(sys, opts);
  ASSERT_EQ(walled.status, verify::Status::Unfinished)
      << "wall gone — shrink the limit so the test still bites";

  verify::CheckOptions<AsyncSystem> ref_opts = opts;
  ref_opts.memory_limit = 512u << 20;
  auto reference = verify::explore(sys, ref_opts);
  ASSERT_EQ(reference.status, verify::Status::Ok);

  TempDir dir;
  opts.external.dir = dir.path.string();
  auto ext = verify::explore(sys, opts);
  EXPECT_EQ(ext.status, verify::Status::Ok) << "note: " << ext.note;
  EXPECT_EQ(ext.states, reference.states);
  EXPECT_EQ(ext.transitions, reference.transitions);
  EXPECT_GT(ext.external_bytes, 0u);
  EXPECT_GT(ext.merge_passes, 0u);
  EXPECT_LE(ext.memory_bytes, opts.memory_limit);

  auto par = verify::par_explore(sys, opts, 4);
  EXPECT_EQ(par.status, verify::Status::Ok) << "note: " << par.note;
  EXPECT_EQ(par.states, reference.states);
  EXPECT_GT(par.external_bytes, 0u);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

TEST(ExternalEndToEnd, DeadDiskReportsUnfinished) {
  // An unusable --external directory must surface as an honest Unfinished
  // (disk took the table's place and disk is gone) — never a crash or a
  // silently truncated Ok.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.detect_deadlock = false;
  opts.external.dir = "/dev/null/ccref-ext";
  auto seq = verify::explore(sys, opts);
  EXPECT_EQ(seq.status, verify::Status::Unfinished);
  auto par = verify::par_explore(sys, opts, 2);
  EXPECT_EQ(par.status, verify::Status::Unfinished);
}

}  // namespace
}  // namespace ccref
