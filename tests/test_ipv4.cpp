// IPv4 value-type behaviour: formatting, parsing, classification.
#include <gtest/gtest.h>

#include <ostream>

#include "net/ipv4.h"

namespace cloudmap {
namespace {

TEST(Ipv4, RoundTripsDottedQuad) {
  const Ipv4 address(192, 168, 3, 44);
  EXPECT_EQ(address.to_string(), "192.168.3.44");
  const auto parsed = Ipv4::parse("192.168.3.44");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, address);
}

TEST(Ipv4, OctetOrderIsBigEndianInValue) {
  EXPECT_EQ(Ipv4(1, 2, 3, 4).value(), 0x01020304u);
}

TEST(Ipv4, NextSteps) {
  EXPECT_EQ(Ipv4(10, 0, 0, 255).next().to_string(), "10.0.1.0");
  EXPECT_EQ(Ipv4(10, 0, 0, 1).next(3).to_string(), "10.0.0.4");
}

struct ParseCase {
  const char* text;
  bool valid;
};
// Prints a case as its quoted text and verdict, so the test's listed name
// (which the default printer would make from the raw struct bytes,
// pointer included) is the same from one build and run to the next.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.text) << (c.valid ? " valid" : " invalid");
}
class Ipv4Parse : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4Parse, HandlesEdgeCases) {
  EXPECT_EQ(Ipv4::parse(GetParam().text).has_value(), GetParam().valid)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4Parse,
    ::testing::Values(
        ParseCase{"0.0.0.0", true}, ParseCase{"255.255.255.255", true},
        ParseCase{"1.2.3.4", true}, ParseCase{"01.2.3.4", true},
        ParseCase{"256.1.1.1", false}, ParseCase{"1.2.3", false},
        ParseCase{"1.2.3.4.5", false}, ParseCase{"", false},
        ParseCase{"a.b.c.d", false}, ParseCase{"1..2.3", false},
        ParseCase{"1.2.3.", false}, ParseCase{".1.2.3", false},
        ParseCase{"1.2.3.1000", false}, ParseCase{"1.2.3.4 ", false}));

TEST(Ipv4, PrivateSpaceClassification) {
  EXPECT_TRUE(Ipv4(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4(10, 255, 255, 255).is_private());
  EXPECT_TRUE(Ipv4(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4(172, 31, 255, 255).is_private());
  EXPECT_FALSE(Ipv4(172, 32, 0, 1).is_private());
  EXPECT_FALSE(Ipv4(172, 15, 255, 255).is_private());
  EXPECT_TRUE(Ipv4(192, 168, 100, 1).is_private());
  EXPECT_FALSE(Ipv4(192, 169, 0, 1).is_private());
  EXPECT_FALSE(Ipv4(11, 0, 0, 1).is_private());
}

TEST(Ipv4, SharedSpaceClassification) {
  EXPECT_TRUE(Ipv4(100, 64, 0, 1).is_shared());
  EXPECT_TRUE(Ipv4(100, 127, 255, 255).is_shared());
  EXPECT_FALSE(Ipv4(100, 128, 0, 0).is_shared());
  EXPECT_FALSE(Ipv4(100, 63, 255, 255).is_shared());
}

TEST(Ipv4, MulticastAndReserved) {
  EXPECT_TRUE(Ipv4(224, 0, 0, 1).is_multicast_or_reserved());
  EXPECT_TRUE(Ipv4(240, 0, 0, 1).is_multicast_or_reserved());
  EXPECT_TRUE(Ipv4(255, 255, 255, 255).is_multicast_or_reserved());
  EXPECT_FALSE(Ipv4(223, 255, 255, 255).is_multicast_or_reserved());
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(Ipv4(1, 0, 0, 0), Ipv4(2, 0, 0, 0));
  EXPECT_LT(Ipv4(1, 0, 0, 1), Ipv4(1, 0, 1, 0));
}

}  // namespace
}  // namespace cloudmap
