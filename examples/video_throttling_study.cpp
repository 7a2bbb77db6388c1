// Video throttling study: one video, three SIM conditions (§7.5).
//
// Plays the same video unthrottled, through 3G traffic shaping, and through
// LTE traffic policing, printing initial loading time, rebuffering ratio,
// stall timeline and TCP retransmission counts — the mechanics behind the
// paper's Findings 6 and 7.
//
//   ./build/examples/video_throttling_study
#include <cstdio>

#include "apps/video_server.h"
#include "core/qoe_doctor.h"

namespace {

void watch_once(const char* label, bool lte, bool throttled,
                std::uint64_t seed) {
  using namespace qoed;
  core::Testbed bed(seed);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  server.add_video({.id = "d3",
                    .title = "d video 3",
                    .duration = sim::sec(60),
                    .bitrate_bps = 500e3});

  auto device = bed.make_device("galaxy-s4");
  device->attach_cellular(radio::CellularConfig::for_scenario(
      lte ? "lte" : "3g", throttled ? 250 : 0, lte ? "policing" : "shaping"));
  apps::VideoApp youtube(*device);
  youtube.launch();
  youtube.connect();
  bed.advance(sim::sec(5));

  core::QoeDoctor doctor(*device, youtube);
  core::YouTubeDriver driver(doctor.controller(), youtube);
  core::VideoWatchResult result;
  bool done = false;
  driver.watch_video("d video", "d3", [&](const core::VideoWatchResult& r) {
    result = r;
    done = true;
  });
  bed.loop().run();

  std::printf("\n--- %s ---\n", label);
  if (!done || !result.completed) {
    std::printf("playback did not complete\n");
    return;
  }
  std::printf("initial loading time : %.2f s\n",
              sim::to_seconds(core::AppLayerAnalyzer::calibrate(
                  result.initial_loading)));
  std::printf("rebuffering ratio    : %.1f%%  (%zu stalls, %.1f s stalled, "
              "%.1f s played)\n",
              result.rebuffering_ratio() * 100, result.stalls.size(),
              sim::to_seconds(result.stall_time),
              sim::to_seconds(result.play_time));
  for (std::size_t i = 0; i < result.stalls.size() && i < 5; ++i) {
    std::printf("  stall %zu at t=%.1fs for %.1fs\n", i + 1,
                result.stalls[i].start.seconds(),
                sim::to_seconds(core::AppLayerAnalyzer::calibrate(
                    result.stalls[i])));
  }

  core::FlowAnalyzer flows(device->trace().records());
  std::uint64_t retx = 0, bytes = 0;
  for (const auto* f : flows.flows_to_host("youtube")) {
    retx += f->retransmissions;
    bytes += f->total_bytes();
  }
  std::printf("TCP: %lu retransmissions over %.1f MB (policing drops bursts,"
              " shaping queues them)\n",
              static_cast<unsigned long>(retx), bytes / 1e6);
}

}  // namespace

int main() {
  std::printf("YouTube-like playback under carrier throttling (cf. §7.5)\n");
  watch_once("unthrottled 3G", false, false, 51);
  watch_once("3G, 250 kbps traffic shaping", false, true, 52);
  watch_once("LTE, 250 kbps traffic policing", true, true, 53);
  return 0;
}
