// Scripted replay: drive an app with a declarative control specification
// (§4.1's "control specifications" as data, no driver code), then dump the
// collected logs the way you'd eyeball them on a real phone: tcpdump-style
// packet lines, QxDM-style radio lines, and the AppBehaviorLog.
//
//   ./build/examples/scripted_replay
#include <cstdio>
#include <iostream>

#include "apps/web_server.h"
#include "core/control_spec.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"

int main() {
  using namespace qoed;
  core::Testbed bed(99);
  apps::WebServer server(bed.network(), bed.next_server_ip());
  sim::Rng pages_rng = bed.fork_rng("pages");
  for (auto& p : apps::make_page_dataset(pages_rng, 3)) server.add_page(p);

  auto device = bed.make_device("galaxy-s3");
  device->attach_cellular(radio::CellularConfig::umts());
  apps::BrowserApp browser(*device);
  browser.launch();
  core::QoeDoctor doctor(*device, browser);

  // The replay script: load three pages back-to-back with think time, each
  // measured from ENTER to the progress bar completing its cycle.
  core::ControlSpec spec("browse_three_pages");
  for (int i = 0; i < 3; ++i) {
    const std::string url = "www.page.sim/page" + std::to_string(i);
    spec.type_text(core::ViewSignature::by_id("url_bar"), url)
        .press_enter(core::ViewSignature::by_id("url_bar"))
        .wait_progress_cycle("page_load",
                             core::ViewSignature::by_id("page_progress"))
        .delay(sim::sec(8));  // think time between pages
  }

  core::ControlRunResult result;
  core::run_control_spec(doctor.controller(), spec,
                         [&](const core::ControlRunResult& r) { result = r; });
  bed.loop().run();

  std::printf("spec '%s': %zu steps, completed=%d, %zu measurements\n\n",
              spec.name().c_str(), spec.size(), result.completed,
              result.records.size());

  std::printf("--- AppBehaviorLog ---\n");
  core::BehaviorTextSink(doctor.log()).write(std::cout);

  std::printf("\n--- packet trace (first 15 lines) ---\n");
  core::TraceTextSink(device->trace().records(), 15).write(std::cout);

  std::printf("\n--- QxDM radio log (first 15 PDUs) ---\n");
  core::QxdmTextSink(device->cellular()->qxdm(), 15).write(std::cout);

  const core::Summary s =
      core::AppLayerAnalyzer::summarize(doctor.log(), "page_load");
  std::printf("\npage_load over %zu pages: mean %.2fs (stddev %.2f)\n", s.n,
              s.mean, s.stddev);
  return 0;
}
