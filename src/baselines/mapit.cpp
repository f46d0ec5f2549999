#include "baselines/mapit.h"

namespace cloudmap {

Mapit::Mapit(const World& world, const Forwarder& forwarder,
             const Annotator& annotator, MapitOptions options)
    : world_(&world),
      forwarder_(&forwarder),
      annotator_(&annotator),
      options_(options) {}

void Mapit::process_record(const TracerouteRecord& record,
                           MapitResult& result) {
  // MAP-IT reads prefix2as from BGP alone: an annotation counts only when
  // its source is the BGP snapshot.
  auto bgp_asn = [&](Ipv4 address) -> Asn {
    const HopAnnotation a = annotator_->annotate(address);
    return a.source == AnnotationSource::kBgp ? a.asn : Asn{};
  };

  Ipv4 previous;
  Asn previous_asn;
  bool have_previous = false;
  for (const TracerouteHop& hop : record.hops) {
    if (!hop.responded) {
      have_previous = false;
      continue;
    }
    const Asn asn = bgp_asn(hop.address);
    if (have_previous) {
      ++result.adjacencies_examined;
      if (previous_asn.is_unknown() || asn.is_unknown()) {
        ++result.skipped_unannotated;
      } else if (asn != previous_asn) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(previous.value()) << 32) |
            hop.address.value();
        if (seen_pairs_.insert(key).second) {
          result.edges.push_back(
              MapitEdge{previous, hop.address, previous_asn, asn});
        }
      }
    }
    previous = hop.address;
    previous_asn = asn;
    have_previous = true;
  }
}

MapitResult Mapit::run(CloudProvider subject) {
  MapitResult result;
  TracerouteEngine engine(*forwarder_, options_.seed, options_.traceroute);
  std::vector<Ipv4> targets;
  for (const Prefix& prefix : world_->probeable_slash24s())
    targets.push_back(prefix.network().next(1));
  for (const RegionId region : world_->regions_of(subject)) {
    const VantagePoint vp =
        VantagePoint::cloud_vm(subject, region, world_->region(region).name);
    for (const Ipv4 target : targets)
      process_record(engine.trace(vp, target), result);
  }
  return result;
}

MapitScore score_mapit(const World& world, const MapitResult& result,
                       CloudProvider subject) {
  MapitScore score;
  // Client interfaces MAP-IT placed on the far side of some edge whose near
  // side is the subject cloud.
  const OrgId subject_org =
      world.ases[world.cloud_primary(subject).value].org;
  std::unordered_set<std::uint32_t> far_interfaces;
  for (const MapitEdge& edge : result.edges) {
    const AsId near = world.find_as(edge.near_as);
    if (!near.valid() || world.ases[near.value].org != subject_org) continue;
    far_interfaces.insert(edge.far_interface.value());
  }
  for (const GroundTruthInterconnect& ic : world.interconnects) {
    if (ic.cloud != subject || ic.private_address) continue;
    const std::uint32_t client_side =
        world.interface(ic.client_interface).address.value();
    const bool hit = far_interfaces.count(client_side) > 0;
    switch (ic.kind) {
      case PeeringKind::kCrossConnect:
        ++score.xconnect_total;
        if (hit) ++score.xconnect_found;
        break;
      case PeeringKind::kPublicIxp:
        ++score.ixp_total;
        if (hit) ++score.ixp_found;
        break;
      case PeeringKind::kVpi:
        ++score.vpi_total;
        if (hit) ++score.vpi_found;
        break;
    }
  }
  return score;
}

}  // namespace cloudmap
