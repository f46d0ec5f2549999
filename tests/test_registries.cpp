// Control-plane registries: WHOIS, AS2ORG, PeeringDB, DNS synthesis+parsing.
#include <gtest/gtest.h>

#include "controlplane/as2org.h"
#include "controlplane/dns.h"
#include "controlplane/peeringdb.h"
#include "controlplane/whois.h"
#include "fixtures.h"

namespace cloudmap {
namespace {

using testfx::small_world;

TEST(Whois, RegistersAllocatedBlocks) {
  const World& world = small_world();
  const WhoisRegistry whois = WhoisRegistry::from_world(world);
  EXPECT_GT(whois.record_count(), 0u);
  // Every announced client prefix resolves to its owner.
  for (const AutonomousSystem& as : world.ases) {
    for (const Prefix& p : as.announced_prefixes) {
      const auto owner = whois.lookup(p.network().next(1));
      ASSERT_TRUE(owner.has_value()) << p.to_string();
      EXPECT_EQ(*owner, as.asn);
    }
    for (const Prefix& p : as.whois_only_prefixes) {
      const auto owner = whois.lookup(p.network().next(1));
      ASSERT_TRUE(owner.has_value()) << p.to_string();
      EXPECT_EQ(*owner, as.asn);
    }
  }
}

TEST(Whois, NoRecordsForPrivateSpace) {
  const WhoisRegistry whois = WhoisRegistry::from_world(small_world());
  EXPECT_FALSE(whois.lookup(Ipv4(10, 0, 0, 1)).has_value());
  EXPECT_FALSE(whois.lookup(Ipv4(100, 64, 0, 1)).has_value());
}

TEST(Whois, CoverageDegradesRecordCount) {
  const World& world = small_world();
  const WhoisRegistry full = WhoisRegistry::from_world(world, 1.0);
  const WhoisRegistry half = WhoisRegistry::from_world(world, 0.5);
  EXPECT_LT(half.record_count(), full.record_count());
  EXPECT_GT(half.record_count(), 0u);
}

TEST(As2Org, AmazonAsnsShareOneOrg) {
  const World& world = small_world();
  const As2Org as2org = As2Org::from_world(world);
  const auto& amazon_ases =
      world.cloud_ases[static_cast<int>(CloudProvider::kAmazon)];
  ASSERT_GE(amazon_ases.size(), 2u);
  const OrgId org = as2org.org_of(world.ases[amazon_ases[0].value].asn);
  for (const AsId id : amazon_ases)
    EXPECT_EQ(as2org.org_of(world.ases[id.value].asn), org);
  EXPECT_TRUE(as2org.org_of(Asn{0}).is_unknown());
  EXPECT_TRUE(as2org.org_of(Asn{999999}).is_unknown());
}

TEST(PeeringDb, IxpPrefixLookup) {
  const World& world = small_world();
  const PeeringDb db = PeeringDb::from_world(world);
  for (std::uint32_t x = 0; x < world.ixps.size(); ++x) {
    const auto found =
        db.ixp_of(world.ixps[x].peering_prefix.network().next(5));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->value, x);
  }
  EXPECT_FALSE(db.ixp_of(Ipv4(20, 0, 0, 1)).has_value());
}

TEST(PeeringDb, LanMemberMapsToClient) {
  const World& world = small_world();
  const PeeringDb db = PeeringDb::from_world(world);
  std::size_t mapped = 0;
  for (const GroundTruthInterconnect& ic : world.interconnects) {
    if (ic.kind != PeeringKind::kPublicIxp) continue;
    const Ipv4 lan = world.interface(ic.client_interface).address;
    const auto member = db.lan_member(lan);
    if (!member) continue;  // coverage gaps are expected
    ++mapped;
    EXPECT_EQ(*member, world.ases[ic.client.value].asn);
  }
  EXPECT_GT(mapped, 0u);
}

TEST(PeeringDb, TenantsAreRealTenants) {
  const World& world = small_world();
  const PeeringDb db = PeeringDb::from_world(world);
  std::size_t listed = 0;
  for (std::uint32_t c = 0; c < world.colos.size(); ++c) {
    for (const Asn tenant : db.tenants(ColoId{c})) {
      ++listed;
      // The tenant has a router or interconnect at the colo in truth.
      const AsId as = world.find_as(tenant);
      ASSERT_TRUE(as.valid());
      bool present = false;
      for (const RouterId router : world.ases[as.value].routers)
        if (world.router(router).colo.value == c) present = true;
      for (const GroundTruthInterconnect& ic : world.interconnects) {
        if (ic.colo.value == c &&
            (ic.client == as || world.cloud_primary(ic.cloud) == as))
          present = true;
      }
      EXPECT_TRUE(present);
    }
  }
  EXPECT_GT(listed, 0u);
}

TEST(PeeringDb, CloudMetrosNonEmpty) {
  const World& world = small_world();
  const PeeringDb db = PeeringDb::from_world(world);
  EXPECT_FALSE(db.cloud_metros(world, CloudProvider::kAmazon).empty());
}

TEST(Dns, NoNamesForCloudInterfaces) {
  const World& world = small_world();
  const DnsRegistry dns = DnsRegistry::from_world(world);
  for (const GroundTruthInterconnect& ic : world.interconnects) {
    const Ipv4 cloud_side = world.interface(ic.cloud_interface).address;
    EXPECT_FALSE(dns.name_of(cloud_side).has_value());
  }
}

TEST(Dns, CoverageRoughlyMatchesOption) {
  const World& world = small_world();
  DnsOptions options;
  options.coverage = 0.42;
  const DnsRegistry dns = DnsRegistry::from_world(world, options);
  std::size_t client_ifaces = 0;
  for (const Interface& iface : world.interfaces) {
    const AutonomousSystem& owner =
        world.ases[world.router_owner(iface.router).value];
    if (owner.type == AsType::kCloud) continue;
    if (iface.address.is_private() || iface.address.is_shared()) continue;
    ++client_ifaces;
  }
  const double fraction = static_cast<double>(dns.record_count()) /
                          static_cast<double>(client_ifaces);
  EXPECT_NEAR(fraction, 0.42, 0.08);
}

TEST(Dns, ParserRecoversEmbeddedMetro) {
  const World& world = small_world();
  DnsOptions options;
  options.coverage = 1.0;
  options.wrong_location = 0.0;
  const DnsRegistry dns = DnsRegistry::from_world(world, options);
  std::size_t parsed = 0;
  std::size_t correct = 0;
  for (const Interface& iface : world.interfaces) {
    const auto name = dns.name_of(iface.address);
    if (!name) continue;
    const auto metro = parse_dns_location(*name, world);
    if (!metro) continue;
    ++parsed;
    if (*metro == world.router(iface.router).metro) ++correct;
  }
  EXPECT_GT(parsed, 100u);
  // Parser should be nearly always right when names are never stale.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(parsed), 0.95);
}

TEST(Dns, VlanAndDxDetectors) {
  EXPECT_TRUE(dns_has_vlan_tag("be-12-vl-302.atlus3.us.bb.acme.net"));
  EXPECT_FALSE(dns_has_vlan_tag("be-12.atlus3.us.bb.acme.net"));
  EXPECT_FALSE(dns_has_vlan_tag("vl-x.acme.net"));
  EXPECT_TRUE(dns_has_dx_keyword("dxvif-ffab.acme.net"));
  EXPECT_TRUE(dns_has_dx_keyword("aws-dx-7.acme.net"));
  EXPECT_TRUE(dns_has_dx_keyword("dxcon-1.acme.net"));
  EXPECT_TRUE(dns_has_dx_keyword("AWSDX-2.acme.net"));
  EXPECT_FALSE(dns_has_dx_keyword("ae-4.acme.net"));
}

TEST(Dns, DxKeywordsOnlyOnVpiInterfaces) {
  const World& world = small_world();
  DnsOptions options;
  options.coverage = 1.0;
  options.dx_keyword_on_vpi = 1.0;
  const DnsRegistry dns = DnsRegistry::from_world(world, options);
  // Collect true VPI client interfaces.
  std::unordered_set<std::uint32_t> vpi_addresses;
  for (const GroundTruthInterconnect& ic : world.interconnects)
    if (ic.kind == PeeringKind::kVpi && !ic.private_address)
      vpi_addresses.insert(
          world.interface(ic.client_interface).address.value());
  for (const Interface& iface : world.interfaces) {
    const auto name = dns.name_of(iface.address);
    if (!name || !dns_has_dx_keyword(*name)) continue;
    EXPECT_TRUE(vpi_addresses.count(iface.address.value()))
        << iface.address.to_string() << " " << *name;
  }
}

}  // namespace
}  // namespace cloudmap
