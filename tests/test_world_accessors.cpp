// World accessor and index coverage beyond generation invariants.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "fixtures.h"

namespace cloudmap {
namespace {

using testfx::small_world;

TEST(WorldAccessors, FindInterfaceRoundTrips) {
  const World& world = small_world();
  std::size_t checked = 0;
  for (std::uint32_t i = 0; i < world.interfaces.size() && checked < 500;
       ++i) {
    const Interface& iface = world.interfaces[i];
    if (iface.address.is_unspecified()) continue;
    const InterfaceId found = world.find_interface(iface.address);
    ASSERT_TRUE(found.valid());
    // Shared addresses (L2 ports, redundant sessions) resolve to the last
    // registrant, which must at least share the router.
    EXPECT_EQ(world.interface(found).router, iface.router);
    ++checked;
  }
  EXPECT_GT(checked, 100u);
  EXPECT_FALSE(world.find_interface(Ipv4(99, 99, 99, 99)).valid());
}

TEST(WorldAccessors, FindInterfaceKeepsLastAddedOnSharedAddress) {
  // The address index is derived from the interface table; on an address
  // held by several interfaces the last-added (highest id) must win.
  const World& world = small_world();
  std::map<std::uint32_t, std::pair<std::size_t, std::uint32_t>> holders;
  for (std::uint32_t i = 0; i < world.interfaces.size(); ++i) {
    const Ipv4 address = world.interfaces[i].address;
    if (address.is_unspecified()) continue;
    auto& [count, highest] = holders[address.value()];
    ++count;
    highest = i;
  }
  std::size_t shared = 0;
  for (const auto& [address, holder] : holders) {
    const auto& [count, highest] = holder;
    const InterfaceId found = world.find_interface(Ipv4(address));
    ASSERT_TRUE(found.valid()) << Ipv4(address).to_string();
    EXPECT_EQ(found.value, highest) << Ipv4(address).to_string();
    if (count > 1) ++shared;
  }
  // The small world has shared addresses, so the rule is exercised.
  EXPECT_GT(shared, 0u);
}

TEST(WorldAccessors, ValidateReportsUnfrozenIndices) {
  World world;
  EXPECT_NE(world.validate().find("freeze_indices() not run"),
            std::string::npos)
      << world.validate();
  world.freeze_indices();
  EXPECT_EQ(world.validate(), "");
}

TEST(WorldAccessors, OwnerOfMatchesPrefixOwner) {
  const World& world = small_world();
  for (const AutonomousSystem& as : world.ases) {
    for (const Prefix& prefix : as.announced_prefixes) {
      const AsId owner = world.owner_of(prefix.network().next(1));
      ASSERT_TRUE(owner.valid());
      // The owner is the AS itself (interconnect /30 carve-outs are from
      // block tops, .1 stays with the block owner).
      EXPECT_EQ(world.ases[owner.value].asn, as.asn);
    }
  }
  EXPECT_FALSE(world.owner_of(Ipv4(99, 0, 0, 1)).valid());
}

TEST(WorldAccessors, LinkOtherSideIsInvolutive) {
  const World& world = small_world();
  for (std::uint32_t l = 0; l < world.links.size(); ++l) {
    const Link& link = world.links[l];
    EXPECT_EQ(world.link_other_side(LinkId{l}, link.side_a), link.side_b);
    EXPECT_EQ(world.link_other_side(LinkId{l}, link.side_b), link.side_a);
  }
}

TEST(WorldAccessors, RegionsOfPartitionsByProvider) {
  const World& world = small_world();
  std::size_t total = 0;
  for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
    const auto regions =
        world.regions_of(static_cast<CloudProvider>(p));
    for (const RegionId region : regions)
      EXPECT_EQ(world.region(region).provider,
                static_cast<CloudProvider>(p));
    total += regions.size();
  }
  EXPECT_EQ(total, world.regions.size());
}

TEST(WorldAccessors, CloudPrimaryIsFirstAndCloudTyped) {
  const World& world = small_world();
  for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
    const auto provider = static_cast<CloudProvider>(p);
    const AsId primary = world.cloud_primary(provider);
    EXPECT_EQ(world.ases[primary.value].type, AsType::kCloud);
    EXPECT_EQ(world.ases[primary.value].cloud, provider);
    EXPECT_TRUE(world.is_cloud_as(primary, provider));
    EXPECT_FALSE(world.is_cloud_as(primary, CloudProvider::kNone));
  }
}

TEST(WorldAccessors, AsByAsnIsComplete) {
  const World& world = small_world();
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    const AsId* found = world.as_by_asn.find(world.ases[i].asn.value);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->value, i);
    EXPECT_EQ(world.find_as(world.ases[i].asn), *found);
  }
  EXPECT_FALSE(world.find_as(Asn{4'000'000'000u}).valid());
}

TEST(WorldAccessors, RouterLocationMatchesMetro) {
  const World& world = small_world();
  for (std::uint32_t r = 0; r < world.routers.size(); ++r) {
    const GeoPoint& location = world.router_location(RouterId{r});
    const GeoPoint& metro =
        world.metro(world.routers[r].metro).location;
    EXPECT_DOUBLE_EQ(location.latitude_deg, metro.latitude_deg);
    EXPECT_DOUBLE_EQ(location.longitude_deg, metro.longitude_deg);
  }
}

TEST(WorldAccessors, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(CloudProvider::kAmazon), "amazon");
  EXPECT_STREQ(to_string(CloudProvider::kOracle), "oracle");
  EXPECT_STREQ(to_string(AsType::kTier1), "tier1");
  EXPECT_STREQ(to_string(AsType::kEnterprise), "enterprise");
  EXPECT_STREQ(to_string(LinkKind::kVpi), "vpi");
  EXPECT_STREQ(to_string(LinkKind::kIxpLan), "ixp-lan");
  EXPECT_STREQ(to_string(PeeringKind::kPublicIxp), "public-ixp");
  EXPECT_STREQ(to_string(PeeringKind::kCrossConnect), "cross-connect");
}

}  // namespace
}  // namespace cloudmap
