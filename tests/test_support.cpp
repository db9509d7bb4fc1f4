// Unit tests for src/support: hashing, node sets, RNG, byte codec, strings,
// tables, CLI parsing, recycled blocks.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>
#include <sstream>

#include "support/block_pool.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/node_set.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/cli.hpp"

namespace ccref {
namespace {

// ---- hash ------------------------------------------------------------------

std::uint64_t hash_str(std::string_view s, std::uint64_t seed = 1) {
  return hash_bytes(std::as_bytes(std::span(s.data(), s.size())), seed);
}

TEST(Hash, DeterministicAcrossCalls) {
  EXPECT_EQ(hash_str("hello"), hash_str("hello"));
  EXPECT_EQ(hash_str(""), hash_str(""));
}

TEST(Hash, DiffersOnContent) {
  EXPECT_NE(hash_str("hello"), hash_str("hellp"));
  EXPECT_NE(hash_str("ab"), hash_str("ba"));
  EXPECT_NE(hash_str("a"), hash_str("aa"));
}

TEST(Hash, DiffersOnSeed) {
  EXPECT_NE(hash_str("hello", 1), hash_str("hello", 2));
}

TEST(Hash, LengthBoundaries) {
  // Exercise the 0/4/8/16-byte code paths.
  std::string s;
  std::set<std::uint64_t> seen;
  for (int len = 0; len <= 40; ++len) {
    seen.insert(hash_str(s));
    s.push_back(static_cast<char>('a' + (len % 26)));
  }
  EXPECT_EQ(seen.size(), 41u) << "collision among trivial inputs";
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(0, 0), 0u);
}

// Collapse-compression dictionary keys are mostly 1-4 bytes; the finalizer
// must keep such short inputs collision-free and well spread. Enumerates
// every 1- and 2-byte key plus constrained 3-/4-byte alphabets and demands
// zero 64-bit collisions across the whole set and a sane low-bit bucket
// distribution (what an open-addressed table actually indexes by).
TEST(Hash, ShortInputCollisionRate) {
  std::set<std::uint64_t> seen;
  std::vector<std::size_t> buckets(256, 0);
  std::size_t total = 0;
  auto feed = [&](std::span<const std::byte> key) {
    const std::uint64_t h = hash_bytes(key);
    ASSERT_TRUE(seen.insert(h).second)
        << "64-bit collision on a " << key.size() << "-byte key";
    ++buckets[h & 0xff];
    ++total;
  };
  std::byte k[4];
  for (unsigned a = 0; a < 256; ++a) {
    k[0] = static_cast<std::byte>(a);
    feed({k, 1});
  }
  for (unsigned a = 0; a < 256; ++a)
    for (unsigned b = 0; b < 256; ++b) {
      k[0] = static_cast<std::byte>(a);
      k[1] = static_cast<std::byte>(b);
      feed({k, 2});
    }
  // 3-byte keys over a 32-symbol alphabet, 4-byte keys over 16 symbols:
  // 32768 + 65536 more keys without the full 2^24/2^32 blow-up.
  for (unsigned a = 0; a < 32; ++a)
    for (unsigned b = 0; b < 32; ++b)
      for (unsigned c = 0; c < 32; ++c) {
        k[0] = static_cast<std::byte>(a * 8);
        k[1] = static_cast<std::byte>(b * 8);
        k[2] = static_cast<std::byte>(c * 8);
        feed({k, 3});
      }
  for (unsigned a = 0; a < 16; ++a)
    for (unsigned b = 0; b < 16; ++b)
      for (unsigned c = 0; c < 16; ++c)
        for (unsigned d = 0; d < 16; ++d) {
          k[0] = static_cast<std::byte>(a * 16);
          k[1] = static_cast<std::byte>(b * 16);
          k[2] = static_cast<std::byte>(c * 16);
          k[3] = static_cast<std::byte>(d * 16);
          feed({k, 4});
        }
  // Uniform expectation is total/256 per low-byte bucket; allow 2x skew.
  const std::size_t expect = total / 256;
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_GT(buckets[i], expect / 2) << "bucket " << i << " underloaded";
    EXPECT_LT(buckets[i], expect * 2) << "bucket " << i << " overloaded";
  }
}

// ---- NodeSet ---------------------------------------------------------------

TEST(NodeSet, StartsEmpty) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
}

TEST(NodeSet, AddRemoveContains) {
  NodeSet s;
  s.add(3);
  s.add(17);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(17));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.size(), 2);
  s.remove(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 1);
  s.remove(3);  // removing an absent element is a no-op
  EXPECT_EQ(s.size(), 1);
}

TEST(NodeSet, AllOfN) {
  EXPECT_EQ(NodeSet::all(0).size(), 0);
  EXPECT_EQ(NodeSet::all(5).size(), 5);
  EXPECT_EQ(NodeSet::all(64).size(), 64);
  EXPECT_TRUE(NodeSet::all(5).contains(4));
  EXPECT_FALSE(NodeSet::all(5).contains(5));
}

TEST(NodeSet, FirstAndNext) {
  NodeSet s;
  s.add(5);
  s.add(9);
  s.add(63);
  EXPECT_EQ(s.first(), 5);
  EXPECT_EQ(s.next_after(5), 9);
  EXPECT_EQ(s.next_after(9), 63);
  EXPECT_EQ(s.next_after(63), -1);
}

TEST(NodeSet, Iteration) {
  NodeSet s;
  s.add(0);
  s.add(2);
  s.add(40);
  std::vector<int> got;
  for (NodeId id : s) got.push_back(id);
  EXPECT_EQ(got, (std::vector<int>{0, 2, 40}));
}

TEST(NodeSet, EqualityIsValueBased) {
  NodeSet a, b;
  a.add(1);
  b.add(1);
  EXPECT_EQ(a, b);
  b.add(2);
  EXPECT_NE(a, b);
}

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= (v == -2);
    hi |= (v == 2);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// ---- bytes -----------------------------------------------------------------

TEST(Bytes, RoundTripFixedWidths) {
  ByteSink sink;
  sink.u8(0xab);
  sink.u16(0x1234);
  sink.u32(0xdeadbeef);
  sink.u64(0x0123456789abcdefull);
  ByteSource src(sink.bytes());
  EXPECT_EQ(src.u8(), 0xab);
  EXPECT_EQ(src.u16(), 0x1234);
  EXPECT_EQ(src.u32(), 0xdeadbeefu);
  EXPECT_EQ(src.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(src.exhausted());
}

TEST(Bytes, VarintRoundTrip) {
  std::vector<std::uint64_t> values = {0,    1,    127,  128,   300,
                                       1u << 20, ~0ull, 0x8080, 42};
  ByteSink sink;
  for (auto v : values) sink.varint(v);
  ByteSource src(sink.bytes());
  for (auto v : values) EXPECT_EQ(src.varint(), v);
  EXPECT_TRUE(src.exhausted());
}

TEST(Bytes, VarintSmallValuesAreOneByte) {
  ByteSink sink;
  sink.varint(127);
  EXPECT_EQ(sink.size(), 1u);
  sink.varint(128);
  EXPECT_EQ(sink.size(), 3u);
}

TEST(Bytes, CanonicalEncoding) {
  ByteSink a, b;
  a.varint(1000);
  b.varint(1000);
  EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                         b.bytes().begin(), b.bytes().end()));
}

TEST(Bytes, PlainSinkIgnoresBoundaries) {
  ByteSink sink;
  sink.u32(7);
  sink.boundary(3);  // no mark store attached: must be a no-op
  sink.u32(9);
  EXPECT_EQ(sink.size(), 8u);
}

TEST(Bytes, ComponentSinkRecordsBoundaries) {
  ComponentSink sink;
  sink.u32(7);
  sink.boundary(0);
  sink.u16(3);
  sink.boundary(2);
  ASSERT_EQ(sink.marks().size(), 2u);
  EXPECT_EQ(sink.marks()[0].end, 4u);
  EXPECT_EQ(sink.marks()[0].cls, 0u);
  EXPECT_EQ(sink.marks()[1].end, 6u);
  EXPECT_EQ(sink.marks()[1].cls, 2u);
}

TEST(Bytes, ComponentSinkRawShiftsEmbeddedMarks) {
  // Encode a fragment with its own marks, then splice it into a larger
  // encoding after a prefix — embedded mark offsets must shift by the base.
  ComponentSink inner;
  inner.u16(1);
  inner.boundary(1);
  inner.u8(2);
  inner.boundary(1);

  ComponentSink outer;
  outer.u32(0xfeed);
  outer.boundary(4);
  outer.raw(inner.bytes(), inner.marks());
  ASSERT_EQ(outer.marks().size(), 3u);
  EXPECT_EQ(outer.marks()[0].end, 4u);
  EXPECT_EQ(outer.marks()[0].cls, 4u);
  EXPECT_EQ(outer.marks()[1].end, 6u);
  EXPECT_EQ(outer.marks()[1].cls, 1u);
  EXPECT_EQ(outer.marks()[2].end, 7u);
  EXPECT_EQ(outer.marks()[2].cls, 1u);
  EXPECT_EQ(outer.size(), 7u);
}

TEST(Bytes, ComponentSinkClearDropsMarks) {
  ComponentSink sink;
  sink.u8(1);
  sink.boundary(0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.marks().empty());
  sink.u8(2);
  sink.boundary(5);
  ASSERT_EQ(sink.marks().size(), 1u);
  EXPECT_EQ(sink.marks()[0].end, 1u);
  EXPECT_EQ(sink.marks()[0].cls, 5u);
}

// ---- strings ---------------------------------------------------------------

TEST(Strings, Strf) {
  EXPECT_EQ(strf("x=%d", 42), "x=42");
  EXPECT_EQ(strf("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(strf("%.2f", 1.239), "1.24");
}

TEST(Strings, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(12), "12 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KB");
  EXPECT_EQ(human_bytes(64ull << 20), "64.0 MB");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

// ---- table -----------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"Protocol", "N", "states"});
  t.row({"migratory", "2", "54"});
  t.row({"invalidate", "16", "228334"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("| migratory "), std::string::npos);
  EXPECT_NE(out.find("| Protocol "), std::string::npos);
  // All lines are equally wide.
  auto lines = split(out, '\n');
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].size(), lines[1].size());
  EXPECT_EQ(lines[0].size(), lines[2].size());
}

TEST(Table, RowArityIsChecked) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.row({"only-one"}), "precondition");
}

// ---- cli -------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--nodes=8", "--verbose", "--name", "mig"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.int_flag("nodes", 2), 8);
  EXPECT_EQ(cli.int_flag("mem", 64), 64);
  EXPECT_TRUE(cli.bool_flag("verbose", false));
  EXPECT_EQ(cli.str_flag("name", "x"), "mig");
  cli.finish();
}

TEST(Cli, DoubleFlag) {
  const char* argv[] = {"prog", "--rate=0.25"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.double_flag("rate", 1.0), 0.25);
  cli.finish();
}

TEST(Cli, PositionalArgs) {
  const char* argv[] = {"prog", "file1", "--k=3", "file2"};
  Cli cli(4, const_cast<char**>(argv));
  (void)cli.int_flag("k", 0);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  cli.finish();
}

TEST(Cli, UnknownFlagIsFatal) {
  const char* argv[] = {"prog", "--bogus=1"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.finish(), testing::ExitedWithCode(2), "unknown flag");
}

TEST(Cli, DoubleFlagRejectsNonFiniteAndHex) {
  // strtod happily parses "nan", "inf" and hex floats; a NaN assertion
  // threshold makes every gate comparison false and the gate passes
  // vacuously. All of these must die with exit 2, not sneak through.
  for (const char* bad : {"nan", "inf", "-inf", "0x1p4", "0X2", "1e",
                          "1.5x", ""}) {
    const std::string arg = std::string("--rate=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_EXIT((void)cli.double_flag("rate", 1.0, ""),
                testing::ExitedWithCode(2), "finite decimal")
        << "value: '" << bad << "'";
  }
}

TEST(Cli, DoubleFlagAcceptsPlainDecimals) {
  for (const char* good : {"0", "-2.5", "1e-3", ".5", "3."}) {
    const std::string arg = std::string("--rate=") + good;
    const char* argv[] = {"prog", arg.c_str()};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(cli.double_flag("rate", 1.0, ""), std::strtod(good,
                                                                   nullptr));
    cli.finish();
  }
}

TEST(Cli, BoolFlagRejectsJunk) {
  const char* argv[] = {"prog", "--verbose=maybe"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT((void)cli.bool_flag("verbose", false, ""),
              testing::ExitedWithCode(2), "expected true or false");
}

TEST(Cli, IntFlagRejectsJunk) {
  for (const char* bad : {"12abc", "zz", ""}) {
    const std::string arg = std::string("--nodes=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_EXIT((void)cli.int_flag("nodes", 2, ""),
                testing::ExitedWithCode(2), "expected integer")
        << "value: '" << bad << "'";
  }
}

// ---- byte-size parsing -----------------------------------------------------

TEST(ParseSize, PlainAndSuffixedValues) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_size("0", 0, max), 0u);
  EXPECT_EQ(parse_size("4096", 0, max), 4096u);
  EXPECT_EQ(parse_size("64K", 0, max), std::uint64_t{64} << 10);
  EXPECT_EQ(parse_size("64k", 0, max), std::uint64_t{64} << 10);
  EXPECT_EQ(parse_size("512M", 0, max), std::uint64_t{512} << 20);
  EXPECT_EQ(parse_size("512m", 0, max), std::uint64_t{512} << 20);
  EXPECT_EQ(parse_size("2G", 0, max), std::uint64_t{2} << 30);
  EXPECT_EQ(parse_size("3T", 0, max), std::uint64_t{3} << 40);
}

TEST(ParseSize, RejectsMalformedSpellings) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(parse_size("", 0, max).has_value());
  EXPECT_FALSE(parse_size("M", 0, max).has_value());  // bare suffix
  EXPECT_FALSE(parse_size("5GB", 0, max).has_value());  // trailing junk
  EXPECT_FALSE(parse_size("5 M", 0, max).has_value());
  EXPECT_FALSE(parse_size("-1K", 0, max).has_value());
  EXPECT_FALSE(parse_size("+64M", 0, max).has_value());
  EXPECT_FALSE(parse_size("0x40M", 0, max).has_value());
  EXPECT_FALSE(parse_size("64Q", 0, max).has_value());  // unknown suffix
}

TEST(ParseSize, RejectsOverflowExactly) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  // 17e18 KiB overflows u64 bytes; the largest representable K value is
  // floor(2^64/1024) and must still be accepted.
  EXPECT_FALSE(parse_size("17000000000000000000K", 0, max).has_value());
  EXPECT_EQ(parse_size("18014398509481983K", 0, max),
            std::uint64_t{18014398509481983} << 10);
  EXPECT_FALSE(parse_size("18014398509481984K", 0, max).has_value());
  EXPECT_FALSE(parse_size("16777216T", 0, max).has_value());
}

TEST(ParseSize, HonorsRangeAfterScaling) {
  // The range check applies to the scaled byte value, not the digits.
  EXPECT_EQ(parse_size("1M", 1 << 20, 1 << 30), std::uint64_t{1} << 20);
  EXPECT_FALSE(parse_size("1023K", 1 << 20, 1 << 30).has_value());
  EXPECT_FALSE(parse_size("2G", 1 << 20, 1 << 30).has_value());
}

TEST(Cli, SizeFlagParsesSuffixAndDefault) {
  const char* argv[] = {"prog", "--mem=512M", "--spill-cap", "2G"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.size_flag("mem", "64M", 1 << 20,
                          std::numeric_limits<std::uint64_t>::max()),
            std::uint64_t{512} << 20);
  EXPECT_EQ(cli.size_flag("spill-cap", "0", 0,
                          std::numeric_limits<std::uint64_t>::max()),
            std::uint64_t{2} << 30);
  // Defaults go through the same parser, suffix and all.
  EXPECT_EQ(cli.size_flag("other", "16K", 0,
                          std::numeric_limits<std::uint64_t>::max()),
            std::uint64_t{16} << 10);
  cli.finish();
}

TEST(Cli, SizeFlagRejectsBadValueWithDiagnostic) {
  const char* argv[] = {"prog", "--mem=5GB"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT((void)cli.size_flag("mem", "64M", 0,
                                  std::numeric_limits<std::uint64_t>::max()),
              testing::ExitedWithCode(2), "mem");
}

// ---- block pool ----------------------------------------------------------

std::vector<std::byte> bytes_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

TEST(BlockPool, RecyclesBlocksThatFitAndGrowsThoseThatDoNot) {
  BlockPool<int> pool;
  BlockPool<int>::Cache cache;
  const auto a = bytes_of(20, 1);
  auto b = pool.make(cache, 7, a);
  EXPECT_EQ(b->header, 7);
  EXPECT_EQ(b->capacity, 32u);  // rounded up to 16 bytes
  EXPECT_TRUE(std::ranges::equal(b->bytes(), a));
  const auto* first = b.get();
  pool.recycle(cache, std::move(b));

  const auto c = bytes_of(30, 2);  // fits the recycled capacity
  auto d = pool.make(cache, 8, c);
  EXPECT_EQ(d.get(), first);
  EXPECT_EQ(d->header, 8);
  EXPECT_TRUE(std::ranges::equal(d->bytes(), c));
  pool.recycle(cache, std::move(d));

  auto e = pool.make(cache, 9, bytes_of(40, 3));  // too big: a new block
  EXPECT_EQ(e->capacity, 48u);
  EXPECT_EQ(e->size, 40u);
}

TEST(BlockPool, SurplusMovesThroughTheSharedPool) {
  // One cache recycles what another made, as a thief does with stolen
  // frontier items; the maker gets them back through the shared pool.
  BlockPool<int> pool;
  BlockPool<int>::Cache maker, thief;
  const auto bytes = bytes_of(8, 0);
  std::set<const void*> made;
  std::vector<BlockPool<int>::Ptr> blocks;
  for (int i = 0; i < 256; ++i) {
    blocks.push_back(pool.make(maker, i, bytes));
    made.insert(blocks.back().get());
  }
  for (auto& b : blocks) pool.recycle(thief, std::move(b));
  blocks.clear();
  for (int i = 0; i < 128; ++i) {
    blocks.push_back(pool.make(maker, i, bytes));
    EXPECT_TRUE(made.count(blocks.back().get()))
        << "block " << i << " is not recycled";
  }
}

}  // namespace
}  // namespace ccref
