// The verification front door (support/verify_cli.hpp): the shared flag
// block parses once, lands in every engine option struct, and the --json
// check row reports what resolve() made of the request — the effective
// por/compress/hash_compact, the storage tier and the exact downgrade
// note — rather than echoing the flags back.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/cli.hpp"
#include "support/verify_cli.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

namespace fs = std::filesystem;
using runtime::AsyncSystem;

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

/// Parse `args` through the full flag block, as a driver would.
VerifyFlags parse(std::vector<std::string> args) {
  args.insert(args.begin(), "test_verify_cli");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  Cli cli(static_cast<int>(argv.size()), argv.data());
  VerifyFlags flags = verify_flags(cli, {.mem = "64M",
                                         .storage = true,
                                         .jobs = true,
                                         .symmetry = true,
                                         .por = true,
                                         .compress = true,
                                         .fairness = true});
  cli.finish();
  return flags;
}

std::string quoted(const std::string& key, const std::string& value) {
  return "\"" + key + "\":\"" + value + "\"";
}

struct Case {
  const char* what;
  std::vector<std::string> args;  // "@ext" stands for the external dir
  bool invariant;
  // The resolved plan the row must report.
  const char* por;
  const char* compress;
  bool hash_compact;
  const char* tier;
  std::string note;
};

TEST(VerifyCli, CheckRowReportsTheResolvedPlan) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ccref-verify-cli";
  const std::vector<Case> cases = {
      {"invariant + ample", {"--por", "ample"}, true, "off", "off", false,
       "full", kPorChecks},
      {"external + ample", {"--external", "@ext", "--por", "ample"}, false,
       "off", "off", false, "external", kPorExternal},
      {"hash-compact + collapse", {"--hash-compact", "--compress", "collapse"},
       false, "off", "off", true, "hash-compact", kCompressIgnored},
      {"external + hash-compact", {"--external", "@ext", "--hash-compact"},
       false, "off", "off", false, "external", kSubsumed},
      // Control: a plan with nothing to downgrade reports the request.
      {"collapse + ample, par",
       {"--compress", "collapse", "--por", "ample", "--jobs", "2"}, false,
       "ample", "collapse", false, "collapse", ""},
  };
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  for (const Case& c : cases) {
    fs::remove_all(dir);
    std::vector<std::string> args = c.args;
    for (auto& a : args)
      if (a == "@ext") a = dir.string();
    const VerifyFlags flags = parse(args);
    auto opts = flags.check_options<AsyncSystem>();
    opts.want_trace = false;
    if (c.invariant)
      opts.invariant = [](const runtime::AsyncState&) { return std::string(); };
    const auto r = verify::check(sys, opts, flags.jobs);
    ASSERT_EQ(r.status, verify::Status::Ok) << c.what;
    EXPECT_EQ(r.note, c.note) << c.what;

    JsonObject o;
    add_check_fields(o, opts, flags.jobs, r);
    const std::string row = o.str();
    EXPECT_NE(row.find(quoted("engine", flags.jobs == 1 ? "seq" : "par")),
              std::string::npos)
        << c.what << ": " << row;
    EXPECT_NE(row.find(quoted("por", c.por)), std::string::npos)
        << c.what << ": " << row;
    EXPECT_NE(row.find(quoted("compress", c.compress)), std::string::npos)
        << c.what << ": " << row;
    EXPECT_NE(row.find(std::string("\"hash_compact\":") +
                       (c.hash_compact ? "true" : "false")),
              std::string::npos)
        << c.what << ": " << row;
    EXPECT_NE(row.find(quoted("tier", c.tier)), std::string::npos)
        << c.what << ": " << row;
    EXPECT_NE(row.find(quoted("note", c.note)), std::string::npos)
        << c.what << ": " << row;
    EXPECT_NE(row.find("\"states\":" + std::to_string(r.states)),
              std::string::npos)
        << c.what << ": " << row;
  }
  fs::remove_all(dir);
}

TEST(VerifyCli, FlagsReachEveryOptionStruct) {
  const VerifyFlags f =
      parse({"--mem", "8M", "--jobs", "3", "--symmetry", "canonical", "--por",
             "ample", "--compress", "collapse", "--fairness", "strong"});
  EXPECT_EQ(f.jobs, 3u);
  const auto c = f.check_options<AsyncSystem>();
  EXPECT_EQ(c.memory_limit, 8u << 20);
  EXPECT_EQ(c.symmetry, verify::SymmetryMode::Canonical);
  EXPECT_EQ(c.por, verify::PorMode::Ample);
  EXPECT_EQ(c.compress, verify::CompressionMode::Collapse);
  const auto p = f.progress_options();
  EXPECT_EQ(p.memory_limit, 8u << 20);
  EXPECT_EQ(p.symmetry, verify::SymmetryMode::Canonical);
  EXPECT_EQ(p.por, verify::PorMode::Ample);
  EXPECT_EQ(p.compress, verify::CompressionMode::Collapse);
  const auto l = f.liveness_options();
  EXPECT_EQ(l.memory_limit, 8u << 20);
  EXPECT_EQ(l.symmetry, verify::SymmetryMode::Canonical);
  EXPECT_EQ(l.por, verify::PorMode::Ample);
  EXPECT_EQ(l.compress, verify::CompressionMode::Collapse);
  EXPECT_EQ(l.fairness, verify::FairnessMode::Strong);
}

TEST(VerifyCliDeathTest, BadModeValuesExitTwoWithOneMessage) {
  EXPECT_EXIT((void)parse({"--symmetry", "mirror"}),
              ::testing::ExitedWithCode(2),
              "bad --symmetry value 'mirror' \\(off \\| canonical\\)");
  EXPECT_EXIT((void)parse({"--por", "stubborn"}), ::testing::ExitedWithCode(2),
              "bad --por value 'stubborn' \\(off \\| ample\\)");
  EXPECT_EXIT((void)parse({"--compress", "zip"}), ::testing::ExitedWithCode(2),
              "bad --compress value 'zip' \\(off \\| collapse\\)");
  EXPECT_EXIT((void)parse({"--fairness", "fair"}),
              ::testing::ExitedWithCode(2),
              "bad --fairness value 'fair' \\(none \\| weak \\| strong\\)");
}

}  // namespace
}  // namespace ccref
