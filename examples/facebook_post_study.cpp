// Facebook post study: replays the paper's §7.2 workflow interactively.
//
// Posts a status, a check-in and a 2-photo upload on 3G, and for each one
// prints the full multi-layer story: user-perceived latency, whether the
// network was on the critical path (Finding 1), the device/network split,
// and — for the photo upload — the fine-grained RLC-level breakdown
// (Finding 2).
//
//   ./build/examples/facebook_post_study
#include <cstdio>

#include "apps/social_server.h"
#include "core/qoe_doctor.h"
#include "diag/rrc_state_tracker.h"

namespace {

void study_post(qoed::core::Testbed& bed, qoed::core::QoeDoctor& doctor,
                qoed::core::FacebookDriver& driver, qoed::apps::PostKind kind) {
  using namespace qoed;
  core::BehaviorRecord record;
  driver.upload_post(kind,
                     [&](const core::BehaviorRecord& rec) { record = rec; });
  bed.advance(sim::sec(90));
  if (record.timed_out) {
    std::printf("%-8s: timed out\n", apps::to_string(kind));
    return;
  }

  const core::DeviceNetworkSplit split =
      core::device_network_split(doctor.flows(), record, "facebook");
  std::printf("\n--- upload_post:%s ---\n", apps::to_string(kind));
  std::printf("user-perceived latency: %.2f s\n", split.total_s);
  std::printf("network on critical path: %s\n",
              split.network_on_critical_path ? "YES" : "NO (local feed echo)");
  if (split.network_on_critical_path) {
    std::printf("  device  : %.2f s\n", split.device_s);
    std::printf("  network : %.2f s\n", split.network_s);
    const radio::QxdmLogger& qxdm = doctor.device().cellular()->qxdm();
    const core::MappingResult mapping =
        core::RlcMapper::map(doctor.device().trace().records(),
                             qxdm.pdu_log(), net::Direction::kUplink);
    const core::FineBreakdown fine = core::network_breakdown(
        doctor.flows(), record, mapping, qxdm, net::Direction::kUplink);
    std::printf("  network latency breakdown (Fig. 9 method):\n");
    std::printf("    IP-to-RLC delay     : %.2f s\n", fine.ip_to_rlc_s);
    std::printf("    RLC transmission    : %.2f s\n", fine.rlc_tx_s);
    std::printf("    first-hop OTA delay : %.2f s\n", fine.first_hop_ota_s);
    std::printf("    other (core+server) : %.2f s\n", fine.other_s);
  }
}

}  // namespace

int main() {
  using namespace qoed;
  core::Testbed bed(7);
  apps::SocialServer server(bed.network(), bed.next_server_ip());

  auto device = bed.make_device("galaxy-s3");
  device->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp facebook(*device);
  facebook.launch();

  core::QoeDoctor doctor(*device, facebook);
  core::FacebookDriver driver(doctor.controller(), facebook);
  facebook.login("alice");
  bed.advance(sim::sec(20));

  std::printf("Facebook post upload study on C1 3G (cf. paper §7.2)\n");
  study_post(bed, doctor, driver, apps::PostKind::kStatus);
  study_post(bed, doctor, driver, apps::PostKind::kCheckin);
  study_post(bed, doctor, driver, apps::PostKind::kPhotos);

  // Bonus: what the radio did all along.
  const diag::RrcStateTracker rrc(device->cellular()->qxdm(),
                                  device->cellular()->config().rrc);
  std::printf("\nRRC activity over the whole session: %lu promotions, "
              "%.1f J network energy\n",
              static_cast<unsigned long>(device->cellular()->rrc().promotions()),
              rrc.energy_joules(sim::kTimeZero, bed.loop().now()));
  return 0;
}
