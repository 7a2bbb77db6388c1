// Browser / RRC study: how the radio control plane shapes page loads (§7.7).
//
// Loads the same page under the standard 3G RRC machine and the simplified
// (no-FACH) variant, printing the page load time next to the raw RRC
// transition timeline from the QxDM-style log — so you can see the
// promotion(s) sitting on the critical path.
//
//   ./build/examples/browser_rrc_study
#include <cstdio>

#include "apps/web_server.h"
#include "core/qoe_doctor.h"
#include "core/speed_index.h"
#include "radio/record_search.h"

namespace {

double load_once(const char* label, const qoed::radio::CellularConfig& cell) {
  using namespace qoed;
  core::Testbed bed(91);
  apps::WebServer server(bed.network(), bed.next_server_ip());
  server.add_page({.path = "/index",
                   .html_bytes = 55'000,
                   .object_count = 12,
                   .object_bytes = 24'000});
  auto device = bed.make_device("galaxy-s3");
  device->attach_cellular(cell);
  apps::BrowserApp browser(*device);
  browser.launch();
  core::QoeDoctor doctor(*device, browser);
  core::BrowserDriver driver(doctor.controller(), browser);

  core::BehaviorRecord record;
  driver.load_page("www.page.sim/index",
                   [&](const core::BehaviorRecord& rec) { record = rec; });
  bed.loop().run();
  const double load =
      sim::to_seconds(core::AppLayerAnalyzer::calibrate(record));

  std::printf("\n--- %s ---\n", label);
  std::printf("page loading time: %.2f s\n", load);
  std::printf("RRC transitions during the load window:\n");
  const radio::QxdmLogger& qxdm = device->cellular()->qxdm();
  const auto [first, last] =
      radio::record_range(qxdm.rrc_log(), record.start, record.end);
  for (std::size_t i = first; i < last; ++i) {
    const radio::RrcTransitionRecord& t = qxdm.rrc_log()[i];
    std::printf("  t=%.3fs  %s -> %s\n", t.at.seconds(),
                radio::to_string(t.from), radio::to_string(t.to));
  }
  const core::MappingResult mapping = core::RlcMapper::map(
      device->trace().records(), qxdm.pdu_log(), net::Direction::kDownlink);
  const core::FineBreakdown fine = core::network_breakdown(
      doctor.flows(), record, mapping, qxdm, net::Direction::kDownlink);
  std::printf("downlink breakdown: rlc_tx %.2fs, ota %.2fs, other %.2fs\n",
              fine.rlc_tx_s, fine.first_hop_ota_s, fine.other_s);
  const auto si =
      core::compute_speed_index(device->screen(), core::QoeWindow::of(record));
  std::printf("speed index: %.2f s over %d frames (visual progress metric,\n"
              "the paper's §4.2.3 future-work refinement)\n",
              si.speed_index_s, si.frames);
  return load;
}

}  // namespace

int main() {
  using namespace qoed;
  std::printf("3G RRC state machine design vs page load time (cf. §7.7)\n");
  const double standard =
      load_once("standard 3G RRC (PCH <-> FACH <-> DCH)",
                radio::CellularConfig::umts());
  const double simplified =
      load_once("simplified 3G RRC (PCH <-> DCH, no FACH)",
                radio::CellularConfig::umts_simplified());
  std::printf("\npage load reduction from the simplified machine: %.1f%%"
              " (paper: 22.8%%)\n",
              (1 - simplified / standard) * 100);
  return 0;
}
