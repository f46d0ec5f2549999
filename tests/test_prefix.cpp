// CIDR prefix algebra.
#include <gtest/gtest.h>

#include <ostream>

#include "net/prefix.h"

namespace cloudmap {
namespace {

TEST(Prefix, MasksNetworkAddress) {
  const Prefix p(Ipv4(10, 1, 2, 200), 24);
  EXPECT_EQ(p.network().to_string(), "10.1.2.0");
  EXPECT_EQ(p.to_string(), "10.1.2.0/24");
}

TEST(Prefix, Containment) {
  const Prefix p(Ipv4(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.contains(Ipv4(10, 1, 255, 255)));
  EXPECT_FALSE(p.contains(Ipv4(10, 2, 0, 0)));
  EXPECT_TRUE(p.contains(Prefix(Ipv4(10, 1, 2, 0), 24)));
  EXPECT_FALSE(p.contains(Prefix(Ipv4(10, 0, 0, 0), 8)));
  EXPECT_TRUE(p.contains(p));
}

TEST(Prefix, SizeAndBounds) {
  const Prefix p(Ipv4(10, 1, 2, 0), 30);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.first_address().to_string(), "10.1.2.0");
  EXPECT_EQ(p.last_address().to_string(), "10.1.2.3");
  EXPECT_EQ(Prefix(Ipv4(0, 0, 0, 0), 0).size(), std::uint64_t{1} << 32);
}

TEST(Prefix, SplitProducesDisjointChildren) {
  const Prefix p(Ipv4(10, 0, 0, 0), 8);
  const auto [low, high] = p.split();
  EXPECT_EQ(low.to_string(), "10.0.0.0/9");
  EXPECT_EQ(high.to_string(), "10.128.0.0/9");
  EXPECT_TRUE(p.contains(low));
  EXPECT_TRUE(p.contains(high));
  EXPECT_FALSE(low.contains(high.network()));
}

TEST(Prefix, Slash24OfLongPrefixIsCovering24) {
  const Prefix p(Ipv4(10, 1, 2, 248), 30);
  EXPECT_EQ(p.slash24().to_string(), "10.1.2.248/30");
  // slash24() keeps longer prefixes as-is; covering /24 comes from the
  // network address.
  EXPECT_EQ(Prefix(p.network(), 24).to_string(), "10.1.2.0/24");
}

class PrefixEnumerate : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PrefixEnumerate, Slash24CountMatchesLength) {
  const std::uint8_t length = GetParam();
  const Prefix p(Ipv4(20, 0, 0, 0), length);
  const auto subs = p.enumerate_slash24s();
  ASSERT_EQ(subs.size(), std::size_t{1} << (24 - length));
  // Disjoint, ordered, all within parent.
  for (std::size_t i = 0; i < subs.size(); ++i) {
    EXPECT_EQ(subs[i].length(), 24);
    EXPECT_TRUE(p.contains(subs[i]));
    if (i > 0) {
      EXPECT_EQ(subs[i].network().value(),
                subs[i - 1].network().value() + 256);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PrefixEnumerate,
                         ::testing::Values(16, 18, 20, 22, 23, 24));

struct PrefixParseCase {
  const char* text;
  bool valid;
};
// Prints a case as its quoted text and verdict, so the test's listed name
// (which the default printer would make from the raw struct bytes,
// pointer included) is the same from one build and run to the next.
void PrintTo(const PrefixParseCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.text) << (c.valid ? " valid" : " invalid");
}
class PrefixParse : public ::testing::TestWithParam<PrefixParseCase> {};

TEST_P(PrefixParse, HandlesEdgeCases) {
  EXPECT_EQ(Prefix::parse(GetParam().text).has_value(), GetParam().valid)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrefixParse,
    ::testing::Values(PrefixParseCase{"10.0.0.0/8", true},
                      PrefixParseCase{"0.0.0.0/0", true},
                      PrefixParseCase{"1.2.3.4/32", true},
                      PrefixParseCase{"1.2.3.4/33", false},
                      PrefixParseCase{"1.2.3.4", false},
                      PrefixParseCase{"1.2.3.4/", false},
                      PrefixParseCase{"1.2.3.4/ 8", false},
                      PrefixParseCase{"/8", false},
                      PrefixParseCase{"1.2.3.4/222", false}));

TEST(Prefix, ParseMasksHostBits) {
  const auto p = Prefix::parse("10.1.2.200/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.1.2.0/24");
}

}  // namespace
}  // namespace cloudmap
