// Campaign study: the §6 repetition protocol at fleet scale.
//
// Fans N independent page-load experiments (each with its own Testbed,
// device and browser instance) out over a worker pool, then prints the
// cross-run aggregate and the CampaignResult JSON export.
//
//   ./build/examples/campaign_study [runs] [jobs]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "apps/web_server.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"

int main(int argc, char** argv) {
  using namespace qoed;
  const std::size_t runs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 12;
  const std::size_t jobs = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 0;

  core::CampaignConfig cfg;
  cfg.name = "page_load_study";
  cfg.runs = runs;
  cfg.jobs = jobs;
  cfg.master_seed = 2014;
  core::Campaign campaign(cfg);

  // One self-contained run: fresh testbed, one device, three page loads.
  const core::CampaignResult result = campaign.run(
      [](std::uint64_t seed, const core::RunSpec&) {
        core::Testbed bed(seed);
        apps::WebServer server(bed.network(), bed.next_server_ip());
        sim::Rng pages_rng = bed.fork_rng("pages");
        for (auto& p : apps::make_page_dataset(pages_rng, 3)) {
          server.add_page(p);
        }
        auto device = bed.make_device("galaxy-s3");
        device->attach_cellular(radio::CellularConfig::umts());
        apps::BrowserApp browser(*device);
        browser.launch();
        core::QoeDoctor doctor(*device, browser);
        core::BrowserDriver driver(doctor.controller(), browser);

        core::RunResult out;
        core::repeat_async(
            bed.loop(), 3, sim::sec(8),
            [&](std::size_t i, std::function<void()> next) {
              driver.load_page("www.page.sim/page" + std::to_string(i),
                               [&, next](const core::BehaviorRecord& rec) {
                                 if (!rec.timed_out) {
                                   out.add_sample(
                                       "page_load_s",
                                       sim::to_seconds(
                                           core::AppLayerAnalyzer::calibrate(
                                               rec)));
                                 }
                                 next();
                               });
            },
            [] {});
        bed.loop().run();
        out.registry.add_counter(
            "bytes_down", static_cast<double>(device->trace().bytes(
                              net::Direction::kDownlink)));
        return out;
      });

  std::printf("campaign '%s': %zu runs over %zu workers in %.2fs\n",
              result.name.c_str(), result.runs, result.jobs,
              campaign.last_wall_seconds());
  if (const auto* m = result.metric("page_load_s")) {
    std::printf(
        "page_load over %zu loads: pooled mean %.2fs (stddev %.2f), "
        "p90 %.2fs; mean-of-run-means %.2fs\n",
        m->pooled.n, m->pooled.mean, m->pooled.stddev, m->pooled.p90,
        m->per_run_means.mean);
  }

  std::printf("\n--- CampaignResult JSON ---\n");
  core::CampaignJsonSink(result).write(std::cout);
  return 0;
}
