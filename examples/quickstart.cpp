// Quickstart: measure one web page load with QoE Doctor.
//
// Builds the simulated testbed (network core + DNS + a web server), attaches
// a 3G handset running a browser, replays "type URL + ENTER" through the
// QoE-aware UI controller, and prints the calibrated user-perceived latency
// with a first look at the layers underneath.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "apps/web_server.h"
#include "core/qoe_doctor.h"
#include "diag/rrc_state_tracker.h"

int main() {
  using namespace qoed;

  // 1. Testbed: event loop, network core, DNS.
  core::Testbed bed(/*seed=*/42);

  // 2. A web origin with one page (55KB HTML + 12 objects of 24KB).
  apps::WebServer server(bed.network(), bed.next_server_ip());
  server.add_page({.path = "/index",
                   .html_bytes = 55'000,
                   .object_count = 12,
                   .object_bytes = 24'000});

  // 3. The handset, on 3G, running Chrome-like browser.
  auto device = bed.make_device("galaxy-s3");
  device->attach_cellular(radio::CellularConfig::umts());
  apps::BrowserApp browser(*device);
  browser.launch();

  // 4. QoE Doctor: controller + analyzers for this device/app pair.
  core::QoeDoctor doctor(*device, browser);
  core::BrowserDriver driver(doctor.controller(), browser);

  // 5. Replay "load web page" and wait for the progress bar cycle.
  core::BehaviorRecord record;
  driver.load_page("www.page.sim/index",
                   [&](const core::BehaviorRecord& rec) { record = rec; });
  bed.loop().run();

  if (record.timed_out) {
    std::printf("page load timed out!\n");
    return 1;
  }

  const double latency =
      sim::to_seconds(core::AppLayerAnalyzer::calibrate(record));
  std::printf("page loading time (user-perceived): %.3f s\n", latency);

  // 6. Peek at the layers below.
  const core::DeviceNetworkSplit split =
      core::device_network_split(doctor.flows(), record, "page.sim");
  std::printf("  device latency : %.3f s\n", split.device_s);
  std::printf("  network latency: %.3f s\n", split.network_s);

  std::printf("  TCP flows to the server: %zu\n",
              doctor.flows().flows_to_host("page.sim").size());
  radio::CellularLink& cell = *device->cellular();
  const auto mapping = core::RlcMapper::map(
      device->trace().records(), cell.qxdm().pdu_log(),
      net::Direction::kDownlink);
  std::printf("  IP->RLC mapping ratio (downlink): %.1f%%\n",
              mapping.mapped_ratio() * 100);
  const diag::RrcStateTracker rrc(cell.qxdm(), cell.config().rrc);
  const auto residency = rrc.residency(sim::kTimeZero, bed.loop().now());
  std::printf("  RRC: %.1fs DCH, %.1fs FACH, %.1fs PCH; energy %.1f J\n",
              sim::to_seconds(residency.in(radio::RrcState::kDch)),
              sim::to_seconds(residency.in(radio::RrcState::kFach)),
              sim::to_seconds(residency.in(radio::RrcState::kPch)),
              rrc.energy_joules(sim::kTimeZero, bed.loop().now()));
  return 0;
}
