// Experiment CAP — breaking the paper's 64 MB wall with storage tiers:
//
// Table 3 caps every verification at 64 MB of state memory; past the wall
// the checker reports Unfinished with however many states fit. This bench
// sweeps the asynchronous migratory and invalidate protocols across that
// same budget under each storage tier —
//
//   full          one byte vector per state (the Table-3 baseline)
//   collapse      COLLAPSE index tuples + component dictionaries
//   hash-compact  one 64-bit fingerprint per state (omission probability
//                 reported; violations stay exact)
//   spill         full vectors, pools overflowing to an mmap arena
//                 (rows emitted only when --spill DIR is given)
//   external      disk-resident visited set: partitioned fingerprint runs
//                 with delayed duplicate detection (rows emitted only when
//                 --external DIR is given; reports disk bytes and merge
//                 passes in --json)
//
// and then re-runs the Table-3 wall configurations (migratory N=5 at
// 32 MB, invalidate N=5 with symmetry at 16 MB) to show the tiers turning
// Unfinished into a finished verdict inside the same RAM cap.
//
// `--smoke` is the CI gate: small configurations, plus an in-RAM
// full-storage reference run per protocol — exit 1 unless every tier that
// finishes agrees with the reference verdict and state count.
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/verify_cli.hpp"
#include "verify/par_checker.hpp"

using namespace ccref;

namespace {

struct Tier {
  const char* name;
  verify::CompressionMode compress = verify::CompressionMode::Off;
  bool hash_compact = false;
  bool spill = false;
  bool external = false;
};

constexpr Tier kFull{"full"};
constexpr Tier kCollapse{"collapse", verify::CompressionMode::Collapse};
constexpr Tier kHashCompact{"hash-compact", verify::CompressionMode::Off,
                            true};
constexpr Tier kSpill{"spill", verify::CompressionMode::Off, false, true};
constexpr Tier kExternal{"external", verify::CompressionMode::Off, false,
                         false, true};

std::string cell(const verify::CheckResult& r) {
  if (r.status == verify::Status::Unfinished)
    return strf("Unfinished (%zu+)", r.states);
  std::string c = strf("%zu/%.2f", r.states, r.seconds);
  const std::size_t disk = r.spill_bytes + r.external_bytes;
  if (disk > 0) c += strf(" +%zuMB disk", disk >> 20);
  return c;
}

struct Runner {
  const VerifyFlags& flags;
  Table table{{"Protocol", "N", "Mem", "Symmetry", "Tier",
               "States/s (async)"}};
  JsonArrayFile json{};

  verify::CheckResult row(const char* name, const runtime::AsyncSystem& sys,
                          int n, std::size_t mem,
                          verify::SymmetryMode symmetry, const Tier& tier) {
    auto opts = flags.check_options<runtime::AsyncSystem>();
    opts.memory_limit = mem;
    opts.want_trace = false;
    opts.symmetry = symmetry;
    opts.compress = tier.compress;
    opts.hash_compact = tier.hash_compact;
    opts.spill = tier.spill ? SpillPolicy{flags.arena.get(), mem / 2}
                            : SpillPolicy{};
    if (!tier.external) opts.external = {};
    auto r = verify::check(sys, opts, flags.jobs);
    JsonObject o;
    o.field("bench", "capacity")
        .field("protocol", name)
        .field("n", n)
        .field("semantics", "asynchronous")
        .field("mem_bytes", mem)
        .field("spill", tier.spill);
    add_check_fields(o, opts, flags.jobs, r);
    json.push(o);
    table.row({name, strf("%d", n), strf("%zuM", mem >> 20),
               verify::to_string(symmetry), tier.name, cell(r)});
    return r;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const VerifyFlags flags =
      verify_flags(cli, {.mem = "64M", .storage = true, .jobs = true});
  bool smoke = cli.bool_flag(
      "smoke", false,
      "CI gate: small configurations, verdict agreement asserted");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();
  // --hash-compact makes no sense here (the sweep runs every tier); the
  // flag exists because verify_flags declares the uniform storage block,
  // but a request for it would silently duplicate the hash-compact rows.
  if (flags.hash_compact) {
    std::fprintf(stderr,
                 "--hash-compact is implied by the tier sweep; drop it\n");
    return 2;
  }

  const std::size_t mem = flags.memory_limit;
  const unsigned jobs = flags.jobs;
  Runner runner{flags};

  auto migratory = protocols::make_migratory();
  auto invalidate = protocols::make_invalidate();
  auto rp_mig = refine::refine(migratory);
  auto rp_inv = refine::refine(invalidate);

  std::vector<Tier> tiers{kFull, kCollapse, kHashCompact};
  if (flags.arena) tiers.push_back(kSpill);
  if (flags.external.enabled()) tiers.push_back(kExternal);

  if (smoke) {
    // CI: one walled budget per protocol, every tier, counts checked
    // against an in-RAM reference. 2 MB walls migratory N=4 (43,956
    // states) and invalidate N=3 (39,840 states) on full storage.
    const std::size_t wall = 2u << 20;
    bool ok = true;
    auto gate = [&](const char* name, const runtime::AsyncSystem& sys,
                    int n) {
      verify::CheckOptions<runtime::AsyncSystem> ref_opts;
      ref_opts.memory_limit = 512u << 20;
      ref_opts.want_trace = false;
      auto ref = verify::explore(sys, ref_opts);
      if (ref.status != verify::Status::Ok) {
        std::fprintf(stderr, "%s n=%d: reference run %s\n", name, n,
                     verify::to_string(ref.status));
        ok = false;
        return;
      }
      for (const auto& tier : tiers) {
        auto r = runner.row(name, sys, n, wall, verify::SymmetryMode::Off,
                            tier);
        const bool must_finish =
            tier.hash_compact || tier.spill || tier.external;
        if (must_finish &&
            (r.status != verify::Status::Ok || r.states != ref.states)) {
          std::fprintf(stderr,
                       "CAPACITY GATE FAILED: %s n=%d tier=%s: %s "
                       "%zu states vs reference %zu\n",
                       name, n, tier.name, verify::to_string(r.status),
                       r.states, ref.states);
          ok = false;
        }
      }
    };
    gate("Migratory", runtime::AsyncSystem(rp_mig, 4), 4);
    gate("Invalidate", runtime::AsyncSystem(rp_inv, 3), 3);
    runner.table.print(std::cout);
    if (!json_path.empty() && !runner.json.write(json_path)) return 1;
    if (!ok) return 1;
    std::printf("\ncapacity gate passed: hash-compact%s%s finished the "
                "walled runs with reference-exact counts\n",
                flags.arena ? " and spill" : "",
                flags.external.enabled() ? " and external" : "");
    return 0;
  }

  std::printf(
      "CAP: storage tiers vs the %zu MB wall (asynchronous semantics, "
      "%u job%s)\n\n",
      mem >> 20, jobs, jobs == 1 ? "" : "s");

  for (int n : {3, 4, 5, 6})
    for (const auto& tier : tiers)
      runner.row("Migratory", runtime::AsyncSystem(rp_mig, n), n, mem,
                 verify::SymmetryMode::Off, tier);
  // Invalidate stops at N=5: ~29M plain states — every tier's table is
  // budget-bound long before then, so N=6 adds minutes, not information.
  for (int n : {3, 4, 5})
    for (const auto& tier : tiers)
      runner.row("Invalidate", runtime::AsyncSystem(rp_inv, n), n, mem,
                 verify::SymmetryMode::Off, tier);

  // The Table-3 wall rows: configurations the seed build leaves Unfinished
  // at these budgets, finished by compaction (and spill, when available).
  for (const auto& tier : tiers)
    runner.row("Migratory", runtime::AsyncSystem(rp_mig, 5), 5, 32u << 20,
               verify::SymmetryMode::Off, tier);
  for (const auto& tier : tiers)
    runner.row("Invalidate", runtime::AsyncSystem(rp_inv, 5), 5, 16u << 20,
               verify::SymmetryMode::Canonical, tier);

  runner.table.print(std::cout);
  std::printf(
      "\nreading: at 64 MB full storage walls at migratory N=5 / invalidate "
      "N=4;\nhash compaction clears both (omission probability reported in "
      "--json),\n--spill DIR finishes them with full vectors by paging "
      "pools to disk,\nand --external DIR moves the visited set itself to "
      "disk — exact counts\nat budgets where even the spill tier's tables "
      "no longer fit.\n");
  if (!json_path.empty() && !runner.json.write(json_path)) return 1;
  return 0;
}
