// Every verification engine against a naive oracle (reference_explorer.hpp):
// the sequential and the parallel engine, on each visited-set tier (RAM,
// COLLAPSE, hash compaction, the external disk tier), with symmetry off and
// canonical, must report the oracle's status, state count and transition
// count. Under ample-set POR the status must match and the reduced state
// count may not exceed the oracle's. The agreement suites elsewhere compare
// engines with each other; this one compares them with code that shares
// none of their storage, reduction or scheduling machinery.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/snoop.hpp"
#include "protocols/writeupdate.hpp"
#include "reference_explorer.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

namespace fs = std::filesystem;
using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::CompressionMode;
using verify::PorMode;
using verify::SymmetryMode;

enum class Tier { Ram, Collapse, HashCompact, External };

const char* name(Tier t) {
  switch (t) {
    case Tier::Ram: return "ram";
    case Tier::Collapse: return "collapse";
    case Tier::HashCompact: return "hash-compact";
    case Tier::External: return "external";
  }
  return "?";
}

/// Fresh per-test directory for the external tier, removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::path(::testing::TempDir()) /
           ("ccref-oracle-" + std::string(info->name()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

template <class Sys>
void expect_oracle_agreement(const Sys& sys, const char* what) {
  TempDir dir;
  for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
    const auto ref =
        oracle::reference_explore(sys, sym == SymmetryMode::Canonical);
    for (unsigned jobs : {1u, 4u}) {
      for (Tier tier :
           {Tier::Ram, Tier::Collapse, Tier::HashCompact, Tier::External}) {
        for (auto por : {PorMode::Off, PorMode::Ample}) {
          verify::CheckOptions<Sys> opts;
          opts.want_trace = false;
          opts.memory_limit = 512u << 20;
          opts.symmetry = sym;
          opts.por = por;
          if (tier == Tier::Collapse) opts.compress = CompressionMode::Collapse;
          if (tier == Tier::HashCompact) opts.hash_compact = true;
          if (tier == Tier::External) opts.external.dir = dir.path.string();
          auto r = verify::check(sys, opts, jobs);
          const std::string at = std::string(what) + " jobs=" +
                                 std::to_string(jobs) + " tier=" + name(tier) +
                                 " symmetry=" + verify::to_string(sym) +
                                 " por=" + verify::to_string(por);
          ASSERT_EQ(r.status, ref.status) << at << " note: " << r.note;
          if (ref.status != verify::Status::Ok) continue;
          if (por == PorMode::Ample) {
            EXPECT_LE(r.states, ref.states) << at;
            continue;
          }
          EXPECT_EQ(r.states, ref.states) << at;
          EXPECT_EQ(r.transitions, ref.transitions) << at;
        }
      }
    }
  }
}

void expect_async_agreement(const ir::Protocol& p, int n, const char* what) {
  auto rp = refine::refine(p);  // points into `p`, which outlives it
  expect_oracle_agreement(AsyncSystem(rp, n), what);
}

TEST(Oracle, AsyncMigratoryN2) {
  expect_async_agreement(protocols::make_migratory(), 2, "migratory n=2");
}

TEST(Oracle, AsyncMigratoryN3) {
  expect_async_agreement(protocols::make_migratory(), 3, "migratory n=3");
}

TEST(Oracle, AsyncInvalidateN2) {
  expect_async_agreement(protocols::make_invalidate(), 2, "invalidate n=2");
}

TEST(Oracle, AsyncInvalidateN3) {
  expect_async_agreement(protocols::make_invalidate(), 3, "invalidate n=3");
}

TEST(Oracle, AsyncWriteUpdateN2) {
  expect_async_agreement(protocols::make_write_update(), 2, "writeupdate n=2");
}

TEST(Oracle, AsyncLockServerN2) {
  expect_async_agreement(protocols::make_lock_server(), 2, "lockserver n=2");
}

TEST(Oracle, AsyncLockServerN3) {
  expect_async_agreement(protocols::make_lock_server(), 3, "lockserver n=3");
}

TEST(Oracle, AsyncMesiN2) {
  expect_async_agreement(protocols::make_mesi(), 2, "mesi n=2");
}

TEST(Oracle, RendezvousMigratoryN4) {
  const auto p = protocols::make_migratory();
  expect_oracle_agreement(RendezvousSystem(p, 4), "rendezvous migratory n=4");
}

}  // namespace
}  // namespace ccref
