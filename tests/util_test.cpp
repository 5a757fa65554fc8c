#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/words.hpp"

namespace rtsm {
namespace {

// ---------------------------------------------------------------- Rational

TEST(Rational, DefaultIsZero) {
  const Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalisesSignAndGcd) {
  const Rational r(6, -8);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, ZeroNumeratorNormalisesDenominator) {
  const Rational r(0, 17);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_zero());
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), Error);
}

TEST(Rational, Arithmetic) {
  const Rational a(1, 2);
  const Rational b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
}

TEST(Rational, ComparisonIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(34, 100));
  EXPECT_GT(Rational(2, 3), Rational(66, 100));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 2) / Rational(0), Error);
  EXPECT_THROW((void)Rational(0).inverse(), Error);
}

TEST(Rational, ToIntegerRequiresIntegral) {
  EXPECT_EQ(Rational(8, 4).to_integer(), 2);
  EXPECT_THROW((void)Rational(1, 2).to_integer(), Error);
}

TEST(Rational, LargeValuesReduceBeforeOverflow) {
  // (2^40 / 3) * (3 / 2^40) must not overflow despite large intermediates.
  const Rational big(1ll << 40, 3);
  const Rational inv(3, 1ll << 40);
  EXPECT_EQ(big * inv, Rational(1));
}

TEST(Rational, AdditionOverflowDetected) {
  const Rational huge(std::numeric_limits<std::int64_t>::max() / 2, 1);
  EXPECT_THROW(huge + huge + huge, Error);
}

TEST(Rational, ToStringFormats) {
  EXPECT_EQ(Rational(3, 4).to_string(), "3/4");
  EXPECT_EQ(Rational(7).to_string(), "7");
}

TEST(Rational, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

TEST(GcdLcm, BasicProperties) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(7, 13), 91);
  EXPECT_THROW((void)lcm64(0, 3), Error);
}

// --------------------------------------------------------------------- Ids

TEST(Ids, DefaultIsInvalid) {
  const ProcessId id;
  EXPECT_FALSE(id.valid());
}

TEST(Ids, ValueRoundTrip) {
  const TileId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(ChannelId{1}, ChannelId{2});
  EXPECT_EQ(ChannelId{3}, ChannelId{3});
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ProcessId, ChannelId>);
  static_assert(!std::is_same_v<TileId, TileTypeId>);
  SUCCEED();
}

TEST(Ids, Hashable) {
  std::unordered_set<ProcessId> set;
  set.insert(ProcessId{1});
  set.insert(ProcessId{1});
  set.insert(ProcessId{2});
  EXPECT_EQ(set.size(), 2u);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntInvalidRangeThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), Error);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, PickIndexEmptyThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.pick_index(0), Error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

// ----------------------------------------------------------------- strings

TEST(Strings, Join) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Strings, FormatPhaseVectorCollapsesRuns) {
  const std::vector<std::uint32_t> v{8, 8, 8, 0, 8, 8};
  EXPECT_EQ(format_phase_vector(v), "<8^3, 0, 8^2>");
}

TEST(Strings, FormatPhaseVectorSingle) {
  const std::vector<std::uint32_t> v{5};
  EXPECT_EQ(format_phase_vector(v), "<5>");
}

TEST(Strings, FormatPhaseVectorEmpty) {
  EXPECT_EQ(format_phase_vector(std::vector<std::uint32_t>{}), "<>");
}

TEST(Strings, GroupDigits) {
  EXPECT_EQ(group_digits(1234567), "1,234,567");
  EXPECT_EQ(group_digits(999), "999");
  EXPECT_EQ(group_digits(1000), "1,000");
  EXPECT_EQ(group_digits(0), "0");
}

// ------------------------------------------------------------------ Words

std::vector<std::uint64_t> string_key(std::string_view s) {
  return serialize_words([s](auto& w) { w.put_string(s); });
}

TEST(Words, EqualStringsGiveEqualWords) {
  const std::string a = "MONTIUM tile 12";
  const std::string b = std::string("MONTIUM ") + "tile 12";
  EXPECT_EQ(string_key(a), string_key(b));
  EXPECT_EQ(string_key(a).size(), string_words(a.size()));
}

TEST(Words, StringsDifferingAfterTheFirstWordDiffer) {
  // Same first eight bytes, same length: only the second packed word
  // tells them apart.
  EXPECT_NE(string_key("Inv.OFDM-1"), string_key("Inv.OFDM-2"));
  EXPECT_NE(string_key("abcdefghijklmnopX"), string_key("abcdefghijklmnopY"));
}

TEST(Words, StringsDifferingOnlyInLengthDiffer) {
  // Zero padding of the last word must not alias a trailing NUL byte.
  EXPECT_NE(string_key("ab"), string_key(std::string_view("ab\0", 3)));
  EXPECT_NE(string_key(""), string_key(std::string_view("\0", 1)));
  EXPECT_NE(string_key("abcdefgh"),
            string_key(std::string_view("abcdefgh\0", 9)));
}

TEST(Words, LengthPrefixesKeepRunsApart) {
  // ("ab", "c") and ("a", "bc") pack the same bytes; the prefixes differ.
  const auto split = [](std::string_view x, std::string_view y) {
    return serialize_words([&](auto& w) {
      w.put_string(x);
      w.put_string(y);
    });
  };
  EXPECT_NE(split("ab", "c"), split("a", "bc"));

  const std::vector<std::uint32_t> one = {1, 2};
  const std::vector<std::uint32_t> two = {1};
  const auto runs = [](std::span<const std::uint32_t> x,
                       std::span<const std::uint32_t> y) {
    return serialize_words([&](auto& w) {
      w.put_run(x);
      w.put_run(y);
    });
  };
  EXPECT_NE(runs(one, two), runs(two, one));
}

TEST(Words, BufferIsSizedToTheExactWordCount) {
  const std::vector<std::uint32_t> rates(37, 8);
  const auto words = serialize_words([&](auto& w) {
    w.put(7);
    w.put_double(0.5);
    w.put_string("a seventeen bytes");
    w.put_run(rates);
  });
  EXPECT_EQ(words.size(), 2 + string_words(17) + 1 + rates.size());
  EXPECT_EQ(words.capacity(), words.size());
}

TEST(Words, HashFollowsTheWords) {
  const std::vector<std::uint64_t> a = {1, 2, 3};
  const std::vector<std::uint64_t> b = {1, 2, 3};
  const std::vector<std::uint64_t> c = {1, 3, 2};
  EXPECT_EQ(hash_words(a), hash_words(b));
  EXPECT_NE(hash_words(a), hash_words(c));
  EXPECT_NE(hash_words(a), hash_words(std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace rtsm
