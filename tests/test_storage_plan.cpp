// resolve() (verify/storage_plan.hpp): the one place the storage and
// reduction composition rules live. A table over every combination of
// checks x por x hash_compact x compress x external x want_trace pins the
// effective POR mode, the StorageOptions routing, the omission flag and the
// exact note; the same table then runs through both engines, which must
// report that note verbatim.
#include <gtest/gtest.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

namespace fs = std::filesystem;
using runtime::AsyncSystem;
using verify::CompressionMode;
using verify::PorMode;
using verify::StorageTier;

constexpr const char* kPorChecks =
    "por downgraded to off: invariants/edge checks must see every reachable "
    "state and edge";
constexpr const char* kPorExternal =
    "por downgraded to off: the external tier defers duplicate detection, "
    "so the ample cycle proviso cannot observe revisits";
constexpr const char* kSubsumed =
    "hash-compact is subsumed by the external tier: it stores the same "
    "64-bit fingerprints, on disk";
constexpr const char* kCompressIgnored =
    "compress ignored under hash compaction: fingerprints leave no stored "
    "bytes to compress";

struct Row {
  bool invariant, edge_check;
  PorMode por;
  bool hash_compact;
  CompressionMode compress;
  bool external, want_trace;

  // What resolve() must return for this row.
  PorMode por_out;
  bool hash_compact_out, keep_fingerprints_out, fingerprinted_out;
  std::string note;
  StorageTier tier_out = StorageTier::Full;
};

std::string describe(const Row& r) {
  return std::string("invariant=") + (r.invariant ? "1" : "0") +
         " edge_check=" + (r.edge_check ? "1" : "0") +
         " por=" + verify::to_string(r.por) +
         " hash_compact=" + (r.hash_compact ? "1" : "0") +
         " compress=" + verify::to_string(r.compress) +
         " external=" + (r.external ? "1" : "0") +
         " want_trace=" + (r.want_trace ? "1" : "0");
}

/// Every combination, with the expected plan spelled out rule by rule: POR
/// falls to Off under checks (noted first) or else under the external tier;
/// external subsumes hash compaction; any fingerprint tier makes compress
/// moot. Notes join in that order with "; ". The tier is the strongest
/// storage request left standing: external, then hash compaction, then
/// COLLAPSE.
std::vector<Row> table() {
  std::vector<Row> rows;
  for (bool inv : {false, true})
    for (bool edge : {false, true})
      for (PorMode por : {PorMode::Off, PorMode::Ample})
        for (bool hc : {false, true})
          for (CompressionMode cm : {CompressionMode::Off,
                                     CompressionMode::Collapse})
            for (bool ext : {false, true})
              for (bool trace : {false, true}) {
                Row r{inv, edge, por, hc, cm, ext, trace,
                      PorMode::Off, false, false, false, {}};
                std::vector<const char*> notes;
                const bool ample = por == PorMode::Ample;
                if (ample && (inv || edge))
                  notes.push_back(kPorChecks);
                else if (ample && ext)
                  notes.push_back(kPorExternal);
                if (ext && hc) notes.push_back(kSubsumed);
                if ((hc || ext) && cm != CompressionMode::Off)
                  notes.push_back(kCompressIgnored);
                for (const char* n : notes)
                  r.note += (r.note.empty() ? "" : "; ") + std::string(n);
                r.por_out = ample && !inv && !edge && !ext ? PorMode::Ample
                                                           : PorMode::Off;
                r.hash_compact_out = hc && !ext;
                r.fingerprinted_out = hc || ext;
                r.keep_fingerprints_out = (hc || ext) && trace;
                r.tier_out = ext  ? StorageTier::External
                             : hc ? StorageTier::HashCompact
                             : cm == CompressionMode::Collapse
                                 ? StorageTier::Collapse
                                 : StorageTier::Full;
                rows.push_back(std::move(r));
              }
  return rows;
}

template <class Sys>
verify::CheckOptions<Sys> options_for(const Row& r, const std::string& dir) {
  verify::CheckOptions<Sys> opts;
  if (r.invariant)
    opts.invariant = [](const typename Sys::State&) { return std::string(); };
  if (r.edge_check)
    opts.edge_check = [](const typename Sys::State&,
                         const typename Sys::State&,
                         const sem::Label&) { return std::string(); };
  opts.por = r.por;
  opts.hash_compact = r.hash_compact;
  opts.compress = r.compress;
  if (r.external) opts.external.dir = dir;
  opts.want_trace = r.want_trace;
  opts.memory_limit = 64u << 20;
  return opts;
}

TEST(StoragePlan, ResolveTable) {
  const auto rows = table();
  ASSERT_EQ(rows.size(), 128u);
  for (const Row& r : rows) {
    auto opts = options_for<AsyncSystem>(r, "/nonexistent-plan-dir");
    const verify::StoragePlan plan = verify::resolve(opts);
    const std::string what = describe(r);
    EXPECT_EQ(plan.por, r.por_out) << what;
    EXPECT_EQ(plan.storage.hash_compact, r.hash_compact_out) << what;
    EXPECT_EQ(plan.storage.keep_fingerprints, r.keep_fingerprints_out)
        << what;
    EXPECT_EQ(plan.fingerprinted, r.fingerprinted_out) << what;
    EXPECT_EQ(plan.note, r.note) << what;
    EXPECT_EQ(plan.tier, r.tier_out) << what;
    // Pass-throughs: the routing never rewrites what it does not own.
    EXPECT_EQ(plan.storage.compress, r.compress) << what;
    EXPECT_EQ(plan.storage.external.enabled(), r.external) << what;
    EXPECT_EQ(plan.storage.fingerprint, &verify::default_fingerprint)
        << what;
  }
}

TEST(StoragePlan, ResolveKeepsAFingerprintOverride) {
  verify::CheckOptions<AsyncSystem> opts;
  opts.hash_compact = true;
  auto fp = +[](std::span<const std::byte>) -> std::uint64_t { return 7; };
  opts.fingerprint = fp;
  EXPECT_EQ(verify::resolve(opts).storage.fingerprint, fp);
}

TEST(StoragePlan, BothEnginesReportTheResolvedNote) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  const fs::path dir = fs::path(::testing::TempDir()) / "ccref-plan-notes";
  for (const Row& r : table()) {
    fs::remove_all(dir);
    const auto opts = options_for<AsyncSystem>(r, dir.string());
    const std::string what = describe(r);
    auto seq = verify::explore(sys, opts);
    auto par = verify::par_explore(sys, opts, 4);
    EXPECT_EQ(seq.status, verify::Status::Ok) << what;
    EXPECT_EQ(par.status, verify::Status::Ok) << what;
    EXPECT_EQ(seq.note, par.note) << what;
    EXPECT_EQ(seq.note, r.note) << what;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ccref
