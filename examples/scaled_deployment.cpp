// Management scalability on a generated ~200-AS deployment.
//
// Demonstrates the paper's management-scalability story: bringing up a
// realistic topology requires *no* per-flow or per-destination
// configuration — each AS only knows its local traffic matrix, and
// everything else (segments, SegRs, EERs) is negotiated automatically by
// the control plane. Prints deployment-wide statistics.
#include <chrono>
#include <cstdio>

#include "colibri/app/testbed.hpp"
#include "colibri/topology/generator.hpp"

using namespace colibri;

int main() {
  topology::GeneratorConfig cfg;
  cfg.isds = 3;
  cfg.cores_per_isd = 2;
  cfg.fanout = 5;
  cfg.depth = 2;
  cfg.multihome_prob = 0.3;
  cfg.seed = 2026;

  const auto t0 = std::chrono::steady_clock::now();
  SimClock clock(1000 * kNsPerSec);
  app::Testbed bed(topology::generate_topology(cfg), clock);
  const auto t1 = std::chrono::steady_clock::now();

  std::printf("generated deployment: %zu ASes (%d ISDs), %zu segments "
              "discovered in %lld ms\n",
              bed.topology().as_count(), cfg.isds, bed.pathdb().size(),
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0)
                      .count()));

  const std::uint64_t msgs_before = bed.bus().snapshot().messages;
  const size_t provisioned = bed.provision_all_segments(100, 1'000'000);
  const auto t2 = std::chrono::steady_clock::now();
  const std::uint64_t msgs = bed.bus().snapshot().messages - msgs_before;
  std::printf("provisioned %zu SegRs in %lld ms (%llu control messages, "
              "%.1f per SegR)\n",
              provisioned,
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(t2 - t1)
                      .count()),
              static_cast<unsigned long long>(msgs),
              static_cast<double>(msgs) /
                  static_cast<double>(provisioned ? provisioned : 1));

  // Random host pairs across ISDs open reservations.
  std::vector<AsId> leaves;
  for (AsId id : bed.topology().as_ids()) {
    if (!bed.topology().node(id).core) leaves.push_back(id);
  }
  Rng rng(7);
  int attempted = 0, established = 0;
  std::uint64_t host = 1;
  for (int i = 0; i < 200; ++i) {
    const AsId src = leaves[rng.below(leaves.size())];
    const AsId dst = leaves[rng.below(leaves.size())];
    if (src == dst || src.isd() == dst.isd()) continue;
    ++attempted;
    const HostAddr src_host = HostAddr::from_u64(host++);
    const HostAddr dst_host = HostAddr::from_u64(host++);
    auto session =
        bed.daemon(src).open_session(dst, src_host, dst_host, 10, 500);
    established += session.ok();
  }
  const auto t3 = std::chrono::steady_clock::now();
  std::printf("cross-ISD reservations: %d/%d established in %lld ms\n",
              established, attempted,
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(t3 - t2)
                      .count()));

  // Per-AS state footprint: the management-scalability metric.
  size_t max_segrs = 0, max_eers = 0, total_segrs = 0;
  for (AsId id : bed.topology().as_ids()) {
    const auto& db = bed.cserv(id).db();
    max_segrs = std::max(max_segrs, db.segr_count());
    max_eers = std::max(max_eers, db.eer_count());
    total_segrs += db.segr_count();
  }
  std::printf("state footprint: max %zu SegRs / %zu EERs at any single AS "
              "(avg %.1f SegRs per AS)\n",
              max_segrs, max_eers,
              static_cast<double>(total_segrs) /
                  static_cast<double>(bed.topology().as_count()));
  std::printf("no per-flow state on any router; no manual configuration "
              "beyond the local traffic matrix.\n");
  return established > 0 ? 0 : 1;
}
