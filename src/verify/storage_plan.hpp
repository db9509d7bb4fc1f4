// The storage/reduction plan both reachability engines run under.
//
// CheckOptions lets a caller ask for combinations that cannot all hold at
// once: an ample-set reduction next to invariants, hash compaction next to
// the external tier, COLLAPSE next to fingerprint storage. resolve() is the
// single owner of those composition rules. It returns what the run will
// actually do — the effective POR mode, the storage tier, and one
// StorageOptions that serves the sequential CollapsedStateSet and the
// parallel ShardedStateSet alike — plus the note that tells the user which
// requests were downgraded. explore and par_explore both call it, so the
// same options give the same plan and the same note in either engine, and
// the --json check rows (support/verify_cli.hpp) report it.
#pragma once

#include <cstdint>
#include <string>

#include "verify/collapse.hpp"
#include "verify/por.hpp"

namespace ccref::verify {

template <class Sys>
struct CheckOptions;

/// Where a run keeps its visited states: one byte vector per state, COLLAPSE
/// index tuples, one 64-bit fingerprint per state in RAM, or fingerprints in
/// disk runs. (--spill composes with the two byte tiers; it moves pool
/// chunks, not the tier.)
enum class StorageTier : std::uint8_t { Full, Collapse, HashCompact, External };

[[nodiscard]] constexpr const char* to_string(StorageTier t) {
  switch (t) {
    case StorageTier::Full: return "full";
    case StorageTier::Collapse: return "collapse";
    case StorageTier::HashCompact: return "hash-compact";
    case StorageTier::External: return "external";
  }
  return "?";
}

struct StoragePlan {
  PorMode por = PorMode::Off;            // the reduction really applied
  StorageTier tier = StorageTier::Full;  // where states really live
  StorageOptions storage;  // visited-set routing, for either set type
  /// Hash compaction or the external tier: states are kept as 64-bit
  /// fingerprints, so an Ok count carries an omission bound and traces
  /// replay by fingerprint.
  bool fingerprinted = false;
  std::string note;  // every downgrade, "; "-separated ("" when none)
};

template <class Sys>
[[nodiscard]] StoragePlan resolve(const CheckOptions<Sys>& opts) {
  StoragePlan plan;
  const bool external = opts.external.enabled();
  auto add_note = [&](const char* text) {
    if (!plan.note.empty()) plan.note += "; ";
    plan.note += text;
  };
  // Invariants and edge checks observe state/edge detail the ample sets are
  // not invisible to (C2): a reduced search would check them only on the
  // reduced graph. Downgrade rather than return a weaker verdict.
  plan.por = opts.por;
  if (plan.por == PorMode::Ample && (opts.invariant || opts.edge_check)) {
    plan.por = PorMode::Off;
    add_note(
        "por downgraded to off: invariants/edge checks must see every "
        "reachable state and edge");
  }
  // The ample cycle proviso (C3) re-expands a state when an ample successor
  // reads back AlreadyPresent; the external tier answers Deferred instead,
  // which must count as a revisit — every state would expand fully while
  // still reporting reduced-looking counts. Downgrade honestly.
  if (plan.por == PorMode::Ample && external) {
    plan.por = PorMode::Off;
    add_note(
        "por downgraded to off: the external tier defers duplicate "
        "detection, so the ample cycle proviso cannot observe revisits");
  }
  if (external && opts.hash_compact)
    add_note(
        "hash-compact is subsumed by the external tier: it stores the "
        "same 64-bit fingerprints, on disk");
  plan.fingerprinted = opts.hash_compact || external;
  if (plan.fingerprinted && opts.compress != CompressionMode::Off)
    add_note(
        "compress ignored under hash compaction: fingerprints leave no "
        "stored bytes to compress");
  plan.tier = external            ? StorageTier::External
              : opts.hash_compact ? StorageTier::HashCompact
              : opts.compress == CompressionMode::Collapse
                  ? StorageTier::Collapse
                  : StorageTier::Full;
  plan.storage = {
      .compress = opts.compress,
      .hash_compact = opts.hash_compact && !external,
      .fingerprint = opts.fingerprint != nullptr ? opts.fingerprint
                                                 : &default_fingerprint,
      // The fingerprint log (or the external tier's on-disk order log)
      // exists only to re-concretize counterexamples; skip it when no
      // trace is wanted. Sharded records already hold their full
      // fingerprint, so ShardedStateSet reads this for external shards
      // only.
      .keep_fingerprints = plan.fingerprinted && opts.want_trace,
      .spill = opts.spill,
      .external = opts.external};
  return plan;
}

}  // namespace ccref::verify
