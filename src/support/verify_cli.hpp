// The front door of every verification run in the bench/example binaries:
// one flag block, one copy into the engine options, one --json row.
//
// Every driver runs the paper's pipeline the same way, so each declares the
// subset of these flags it uses (VerifyFlagSet) and gets the same spelling,
// --help text, validation and exit-2 message as every other driver:
//
//   --mem 64M           RAM budget for state storage (K/M/G/T suffixes)
//   --hash-compact      store 64-bit fingerprints instead of state vectors
//   --spill DIR         mmap-backed overflow for pools and dictionaries
//   --spill-cap SIZE    cap on spill bytes (0 = whatever the disk holds);
//                       fresh chunks spill once RAM use passes half of
//                       --mem, leaving the tables headroom
//   --external DIR      disk-resident visited set: partitioned fingerprint
//                       runs + delayed duplicate detection (external_set.hpp),
//                       sized from --mem
//   --jobs N            worker threads (1 = the sequential engine)
//   --symmetry MODE     off | canonical
//   --por MODE          off | ample
//   --compress MODE     off | collapse
//   --fairness MODE     none | weak | strong (LTL checks)
//
// VerifyFlags is then the only code that copies those values into
// CheckOptions, ProgressOptions and LivenessOptions; verify::check()
// (par_checker.hpp) picks the engine from `jobs`, and add_check_fields()
// writes the shared --json fields of a check row from what resolve() made
// of the request, not from the request itself. VerifyFlags owns the
// SpillArena, so the options only carry a pointer into it. A --spill or
// --external directory that cannot be created is an option error (exit 2),
// not a silent RAM-only run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/run_file.hpp"
#include "support/spill.hpp"
#include "verify/checker.hpp"
#include "verify/liveness.hpp"
#include "verify/progress.hpp"

namespace ccref {

/// Which flags of the block a driver declares.
struct VerifyFlagSet {
  const char* mem = nullptr;  // --mem default ("64M"); null: no --mem
  bool storage = false;       // --hash-compact, --spill*, --external
  bool jobs = false;
  bool symmetry = false;
  bool por = false;
  bool compress = false;
  bool fairness = false;
};

struct VerifyFlags {
  std::size_t memory_limit = 64u << 20;
  bool hash_compact = false;
  std::unique_ptr<SpillArena> arena;  // null when --spill was not given
  SpillPolicy spill;                  // default-null policy without an arena
  verify::ExternalPolicy external;    // empty dir when --external not given
  unsigned jobs = 1;
  verify::SymmetryMode symmetry = verify::SymmetryMode::Off;
  verify::PorMode por = verify::PorMode::Off;
  verify::CompressionMode compress = verify::CompressionMode::Off;
  verify::FairnessMode fairness = verify::FairnessMode::Weak;

  template <class Sys>
  [[nodiscard]] verify::CheckOptions<Sys> check_options() const {
    verify::CheckOptions<Sys> o;
    o.memory_limit = memory_limit;
    o.hash_compact = hash_compact;
    o.spill = spill;
    o.external = external;
    o.symmetry = symmetry;
    o.por = por;
    o.compress = compress;
    return o;
  }

  [[nodiscard]] verify::ProgressOptions progress_options() const {
    return {.memory_limit = memory_limit,
            .symmetry = symmetry,
            .por = por,
            .compress = compress};
  }

  [[nodiscard]] verify::LivenessOptions liveness_options() const {
    verify::LivenessOptions o;
    o.memory_limit = memory_limit;
    o.symmetry = symmetry;
    o.fairness = fairness;
    o.por = por;
    o.compress = compress;
    return o;
  }
};

namespace detail {

/// A mode flag ("--por ample"): the value must parse, or the run exits 2
/// with the one message every mode flag shares.
template <class Mode>
[[nodiscard]] Mode mode_flag(Cli& cli, const char* name, const char* def,
                             const char* choices,
                             std::optional<Mode> (*parse)(std::string_view),
                             const char* what) {
  const std::string text =
      cli.str_flag(name, def, std::string(what) + ": " + choices);
  const std::optional<Mode> mode = parse(text);
  if (!mode) {
    std::fprintf(stderr, "bad --%s value '%s' (%s)\n", name, text.c_str(),
                 choices);
    std::exit(2);
  }
  return *mode;
}

}  // namespace detail

/// Declare (and parse) the flags in `which`; the rest keep their defaults.
[[nodiscard]] inline VerifyFlags verify_flags(Cli& cli,
                                              const VerifyFlagSet& which) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  VerifyFlags f;
  if (which.mem != nullptr)
    f.memory_limit = static_cast<std::size_t>(
        cli.size_flag("mem", which.mem, 1u << 20, kMax,
                      "state-memory limit, e.g. 64M or 2G"));
  if (which.storage) {
    f.hash_compact = cli.bool_flag(
        "hash-compact", false,
        "store 64-bit fingerprints per state (reports omission probability)");
    std::string dir = cli.str_flag(
        "spill", "", "directory for mmap-backed pool overflow (default: none)");
    auto cap = static_cast<std::size_t>(cli.size_flag(
        "spill-cap", "0", 0, kMax, "max spill bytes (0: unlimited)"));
    if (!dir.empty()) {
      f.arena = std::make_unique<SpillArena>(dir, cap == 0 ? kMax : cap);
      if (!f.arena->ok()) {
        std::fprintf(stderr, "--spill: cannot create directory '%s'\n",
                     dir.c_str());
        std::exit(2);
      }
      f.spill = {f.arena.get(), f.memory_limit / 2};
    }
    std::string ext_dir = cli.str_flag(
        "external", "",
        "directory for the disk-resident visited set (delayed duplicate "
        "detection; default: none)");
    if (!ext_dir.empty()) {
      if (!ensure_run_dir(ext_dir)) {
        std::fprintf(stderr, "--external: cannot create directory '%s'\n",
                     ext_dir.c_str());
        std::exit(2);
      }
      f.external.dir = std::move(ext_dir);
    }
  }
  if (which.jobs)
    f.jobs = static_cast<unsigned>(cli.uint_flag(
        "jobs", 1, 1, 1024, "worker threads (1 = sequential engine)"));
  if (which.symmetry)
    f.symmetry = detail::mode_flag(cli, "symmetry", "off", "off | canonical",
                                   &verify::parse_symmetry,
                                   "symmetry reduction");
  if (which.por)
    f.por = detail::mode_flag(cli, "por", "off", "off | ample",
                              &verify::parse_por, "partial-order reduction");
  if (which.compress)
    f.compress = detail::mode_flag(cli, "compress", "off", "off | collapse",
                                   &verify::parse_compression,
                                   "state-vector compression");
  if (which.fairness)
    f.fairness = detail::mode_flag(cli, "fairness", "weak",
                                   "none | weak | strong",
                                   &verify::parse_fairness,
                                   "fairness for --ltl");
  return f;
}

/// The check fields every --json row of a reachability run carries: the
/// engine, what resolve() made of the requested reductions and storage
/// (the effective por/compress/hash_compact, the storage tier, and its
/// downgrade note), and the CheckResult.
template <class Sys>
void add_check_fields(JsonObject& o, const verify::CheckOptions<Sys>& opts,
                      unsigned jobs, const verify::CheckResult& r) {
  const verify::StoragePlan plan = verify::resolve(opts);
  const bool collapse = plan.tier == verify::StorageTier::Collapse;
  o.field("engine", jobs == 1 ? "seq" : "par")
      .field("jobs", jobs)
      .field("symmetry", verify::to_string(opts.symmetry))
      .field("por", verify::to_string(plan.por))
      .field("compress", verify::to_string(
                             collapse ? verify::CompressionMode::Collapse
                                      : verify::CompressionMode::Off))
      .field("hash_compact", plan.storage.hash_compact)
      .field("tier", verify::to_string(plan.tier))
      .field("note", plan.note)
      .field("status", verify::to_string(r.status))
      .field("states", r.states)
      .field("transitions", r.transitions)
      .field("seconds", r.seconds)
      .field("memory_bytes", r.memory_bytes)
      .field("pool_bytes", r.pool_bytes)
      .field("raw_pool_bytes", r.raw_pool_bytes)
      .field("compression_ratio",
             r.pool_bytes ? static_cast<double>(r.raw_pool_bytes) /
                                static_cast<double>(r.pool_bytes)
                          : 0.0)
      .field("spill_bytes", r.spill_bytes)
      .field("external_bytes", r.external_bytes)
      .field("merge_passes", r.merge_passes)
      .field("waste_bytes", r.waste_bytes)
      .field("omission_probability", r.omission_probability);
}

}  // namespace ccref
