#include "cell/cell_run.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/social_server.h"
#include "apps/video_server.h"
#include "apps/web_server.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "core/shard.h"
#include "core/timeline_merge.h"
#include "fault/fault_injector.h"
#include "svc/run_spec.h"

namespace qoed::cell {

namespace {

using svc::one_of;

// Everything one simulated handset owns for the duration of the run. Only
// the unique_ptr matching `spec->app` is set.
struct DeviceRun {
  std::string name;
  const CellDeviceSpec* spec = nullptr;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<apps::BrowserApp> browser;
  std::unique_ptr<apps::SocialApp> social;
  std::unique_ptr<apps::VideoApp> video;
  std::unique_ptr<core::QoeDoctor> doctor;
  std::unique_ptr<svc::Instruments> instruments;
  std::unique_ptr<core::BrowserDriver> browser_driver;
  std::unique_ptr<core::FacebookDriver> social_driver;
  std::unique_ptr<core::YouTubeDriver> video_driver;
  std::optional<sim::Rng> pick;
};

// The enum, range and device-list checks parse_json and run_cell_scenario
// share.
bool check(const CellScenarioSpec& spec, std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const auto negative = [&fail](const char* key) {
    return fail(std::string("cell spec: \"") + key +
                "\" must be finite and non-negative");
  };
  const auto bad = [](double v) { return !(v >= 0) || std::isinf(v); };
  if (!one_of(spec.network, {"3g", "3g-simplified", "lte"})) {
    return fail("cell spec: unknown network \"" + spec.network + "\"");
  }
  if (!one_of(spec.mechanism, {"shaping", "policing"})) {
    return fail("cell spec: unknown mechanism \"" + spec.mechanism + "\"");
  }
  if (bad(spec.capacity_kbps)) return negative("capacity_kbps");
  if (spec.throttle_kbps < 0) return negative("throttle");
  if (spec.max_active_grants < 0) return negative("grants");
  if (spec.promotion_penalty_ms < 0) return negative("promo_ms");
  for (const auto& d : spec.devices) {
    if (!one_of(d.app, {"browser", "social", "video"})) {
      return fail("cell spec: unknown app \"" + d.app + "\"");
    }
    if (bad(d.arrival_s)) return negative("arrival");
    if (d.actions < 0) return negative("actions");
    if (d.think_s < 0) return negative("think");
  }
  if (spec.devices.empty()) return fail("cell spec: no devices");
  return true;
}

}  // namespace

std::string cell_device_label(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "dev-%04d", i);
  return buf;
}

CellScenarioSpec CellScenarioSpec::uniform(const std::string& app, int n,
                                           double stagger_s) {
  CellScenarioSpec spec;
  for (int i = 0; i < n; ++i) {
    CellDeviceSpec d;
    d.app = app;
    d.arrival_s = stagger_s * i;
    spec.devices.push_back(d);
  }
  return spec;
}

core::RunResult run_cell_scenario(const CellScenarioSpec& spec) {
  std::string error;
  if (!check(spec, &error)) throw std::invalid_argument(error);

  core::Testbed bed(spec.seed);

  // Servers are constructed unconditionally and in fixed order so the
  // network topology (and every RNG fork) is independent of the app mix.
  apps::WebServer web(bed.network(), bed.next_server_ip());
  sim::Rng page_rng = bed.fork_rng("pages");
  const auto pages = apps::make_page_dataset(page_rng, 8);
  for (const auto& p : pages) web.add_page(p);
  apps::SocialServer social_srv(bed.network(), bed.next_server_ip());
  apps::VideoServer video_srv(bed.network(), bed.next_server_ip());
  sim::Rng vid_rng = bed.fork_rng("videos");
  for (auto& v :
       apps::make_video_dataset(vid_rng, 500e3, sim::sec(20), sim::sec(60))) {
    video_srv.add_video(v);
  }

  // The scenario's link; with use_cell its throttle moves to the shared gate.
  const radio::CellularConfig scenario_link =
      radio::CellularConfig::for_scenario(spec.network, spec.throttle_kbps,
                                          spec.mechanism);

  // The cell outlives every member link: declared before the device list.
  CellConfig cell_cfg;
  cell_cfg.capacity_bps = spec.capacity_kbps * 1000;
  cell_cfg.throttle = scenario_link.throttle;
  cell_cfg.throttle_rate_bps = scenario_link.throttle_rate_bps;
  cell_cfg.throttle_burst_bytes = scenario_link.throttle_burst_bytes;
  cell_cfg.max_active_grants = spec.max_active_grants;
  cell_cfg.promotion_penalty = sim::msec(spec.promotion_penalty_ms);
  SharedCell cell(bed.loop(), cell_cfg);

  std::vector<DeviceRun> runs(spec.devices.size());
  for (std::size_t i = 0; i < spec.devices.size(); ++i) {
    DeviceRun& r = runs[i];
    r.spec = &spec.devices[i];
    r.name = cell_device_label(static_cast<int>(i));
    r.dev = bed.make_device(r.name);

    radio::CellularConfig link_cfg = scenario_link;
    if (spec.use_cell) {
      link_cfg.cell = &cell;
      link_cfg.throttle = net::ThrottleKind::kNone;  // the cell gate owns it
    }
    r.dev->attach_cellular(link_cfg);

    apps::AndroidApp* app = nullptr;
    if (r.spec->app == "browser") {
      r.browser = std::make_unique<apps::BrowserApp>(*r.dev);
      app = r.browser.get();
    } else if (r.spec->app == "social") {
      apps::SocialAppConfig app_cfg;
      app_cfg.refresh_interval = sim::Duration::zero();
      r.social = std::make_unique<apps::SocialApp>(*r.dev, app_cfg);
      app = r.social.get();
    } else {
      r.video = std::make_unique<apps::VideoApp>(*r.dev);
      app = r.video.get();
    }
    app->launch();
    r.doctor = std::make_unique<core::QoeDoctor>(*r.dev, *app);
    r.instruments = std::make_unique<svc::Instruments>(
        *r.doctor, bed.loop(), fault::injector_from_env(spec.seed + i));
  }

  core::RunResult out;

  // Per-device sessions, started at their arrival offsets. All callbacks
  // capture by reference; everything they touch outlives bed.loop().run().
  for (DeviceRun& r : runs) {
    const sim::TimePoint arrival{sim::sec_f(r.spec->arrival_s)};
    const auto actions = static_cast<std::size_t>(r.spec->actions);
    if (r.spec->app == "browser") {
      r.browser_driver = std::make_unique<core::BrowserDriver>(
          r.doctor->controller(), *r.browser);
      std::vector<std::string> urls;
      for (std::size_t a = 0; a < actions; ++a) {
        urls.push_back("www.page.sim" + pages[a % pages.size()].path);
      }
      bed.loop().schedule_at(arrival, [&r, &out, urls,
                                       think = sim::sec(r.spec->think_s)] {
        r.browser_driver->load_pages(
            urls, think, [&out](const std::vector<core::BehaviorRecord>& recs) {
              for (const core::BehaviorRecord& rec : recs) {
                if (rec.timed_out) continue;
                out.add_sample("latency_s",
                               sim::to_seconds(
                                   core::AppLayerAnalyzer::calibrate(rec)));
              }
            });
      });
    } else if (r.spec->app == "social") {
      r.social_driver = std::make_unique<core::FacebookDriver>(
          r.doctor->controller(), *r.social);
      bed.loop().schedule_at(arrival,
                             [&r] { r.social->login("user-" + r.name); });
      bed.loop().schedule_at(arrival + sim::sec(10), [&bed, &r, &out,
                                                      actions] {
        core::repeat_async(
            bed.loop(), actions, sim::sec(2),
            [&r, &out](std::size_t, std::function<void()> next) {
              r.social_driver->upload_post(
                  apps::PostKind::kStatus,
                  [&out, next](const core::BehaviorRecord& rec) {
                    if (!rec.timed_out) {
                      out.add_sample("latency_s",
                                     sim::to_seconds(
                                         core::AppLayerAnalyzer::calibrate(
                                             rec)));
                    }
                    next();
                  });
            },
            [] {});
      });
    } else {
      r.video_driver = std::make_unique<core::YouTubeDriver>(
          r.doctor->controller(), *r.video);
      r.pick.emplace(bed.fork_rng("pick-" + r.name));
      bed.loop().schedule_at(arrival, [&r] { r.video->connect(); });
      bed.loop().schedule_at(arrival + sim::sec(5), [&bed, &r, &out,
                                                     actions] {
        core::repeat_async(
            bed.loop(), actions, sim::sec(5),
            [&r, &out](std::size_t, std::function<void()> next) {
              const char kw =
                  static_cast<char>('a' + r.pick->uniform_int(0, 25));
              const std::string id =
                  std::string(1, kw) + std::to_string(r.pick->uniform_int(0,
                                                                          9));
              r.video_driver->watch_video(
                  std::string(1, kw) + " video", id,
                  [&out, next](const core::VideoWatchResult& res) {
                    if (!res.initial_loading.timed_out) {
                      out.add_sample("loading_s",
                                     sim::to_seconds(
                                         core::AppLayerAnalyzer::calibrate(
                                             res.initial_loading)));
                    }
                    out.registry.add_counter(
                        "video.stalls",
                        static_cast<double>(res.stalls.size()));
                    next();
                  });
            },
            [] {});
      });
    }
  }

  bed.loop().run();

  // Epilogue, in device order: each device's instrument epilogue, its
  // metrics merged into the cell's registry (counters sum, gauges keep the
  // cell-wide maximum, as across a campaign's runs), and the per-cell
  // artifacts.
  std::vector<core::DeviceTimeline> timelines;
  std::string findings;
  for (DeviceRun& r : runs) {
    core::RunResult dev_out;
    r.instruments->finish(&dev_out);
    r.instruments->encode_artifacts(&dev_out.artifacts);
    out.registry.merge_from(dev_out.registry);
    out.registry.add_counter("cell.device." + r.name + ".findings",
                             dev_out.registry.counter("diag.findings"));
    core::stamp_findings("\"device\":\"" + r.name + '"',
                         dev_out.artifacts.findings_jsonl, &findings);
    timelines.push_back({r.name, std::move(dev_out.artifacts.timeline_jsonl)});
  }
  out.virtual_seconds = bed.loop().now().seconds();
  out.registry.add_counter(
      "fleet.device_seconds",
      out.virtual_seconds * static_cast<double>(runs.size()));
  out.artifacts.findings_jsonl = std::move(findings);
  out.artifacts.timeline_jsonl = core::merge_timelines(timelines);

  if (spec.use_cell) cell.export_metrics(out.registry);
  return out;
}

bool CellScenarioSpec::parse_json(std::string_view json, CellScenarioSpec* out,
                                  std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  core::JsonLiteParser p(json);
  if (!p.enter_object()) return fail("cell spec: expected a JSON object");
  *out = CellScenarioSpec{};
  std::string key;
  while (p.next_key(&key)) {
    bool parsed = true;
    if (key == "network") {
      parsed = p.read_string(&out->network);
    } else if (key == "seed") {
      parsed = p.read_number(&out->seed);
    } else if (key == "use_cell") {
      parsed = p.read_bool(&out->use_cell);
    } else if (key == "capacity_kbps") {
      parsed = p.read_number(&out->capacity_kbps);
    } else if (key == "throttle") {
      parsed = p.read_number(&out->throttle_kbps);
    } else if (key == "mechanism") {
      parsed = p.read_string(&out->mechanism);
    } else if (key == "grants") {
      parsed = p.read_number(&out->max_active_grants);
    } else if (key == "promo_ms") {
      parsed = p.read_number(&out->promotion_penalty_ms);
    } else if (key == "devices") {
      if (!p.enter_array()) return fail("cell spec: devices not an array");
      while (p.array_next()) {
        if (!p.enter_object()) {
          return fail("cell spec: device not an object");
        }
        CellDeviceSpec d;
        std::string dkey;
        while (p.next_key(&dkey)) {
          bool dparsed = true;
          if (dkey == "app") {
            dparsed = p.read_string(&d.app);
          } else if (dkey == "arrival") {
            dparsed = p.read_number(&d.arrival_s);
          } else if (dkey == "actions") {
            dparsed = p.read_number(&d.actions);
          } else if (dkey == "think") {
            dparsed = p.read_number(&d.think_s);
          } else {
            return fail("cell spec: unknown device key \"" + dkey + "\"");
          }
          if (!dparsed) {
            return fail("cell spec: invalid device value for \"" + dkey +
                        "\"");
          }
        }
        out->devices.push_back(std::move(d));
      }
    } else {
      return fail("cell spec: unknown key \"" + key + "\"");
    }
    if (!parsed) {
      return fail("cell spec: invalid value for \"" + key + "\"");
    }
  }
  if (!p.at_end()) {
    return fail("cell spec: malformed JSON after \"" + key + "\"");
  }
  return check(*out, error);
}

std::string CellScenarioSpec::to_json() const {
  std::ostringstream os;
  os << "{\"network\":";
  core::put_json_string(os, network);
  os << ",\"seed\":" << seed
     << ",\"use_cell\":" << (use_cell ? "true" : "false")
     << ",\"capacity_kbps\":";
  core::put_json_number(os, capacity_kbps);
  os << ",\"throttle\":" << throttle_kbps << ",\"mechanism\":";
  core::put_json_string(os, mechanism);
  os << ",\"grants\":" << max_active_grants
     << ",\"promo_ms\":" << promotion_penalty_ms << ",\"devices\":[";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const CellDeviceSpec& d = devices[i];
    if (i > 0) os << ',';
    os << "{\"app\":";
    core::put_json_string(os, d.app);
    os << ",\"arrival\":";
    core::put_json_number(os, d.arrival_s);
    os << ",\"actions\":" << d.actions << ",\"think\":" << d.think_s << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace qoed::cell
