#include "svc/run_spec.h"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "apps/social_server.h"
#include "apps/video_server.h"
#include "apps/web_server.h"
#include "core/export_sink.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "ctrl/policy_engine.h"
#include "diag/diagnosis_engine.h"
#include "diag/findings_sink.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sim/rng.h"

namespace qoed::svc {

namespace {

bool one_of(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return true;
  }
  return false;
}

void attach_network(device::Device& dev, const ScenarioSpec& spec) {
  if (spec.network == "wifi") {
    dev.attach_wifi();
    return;
  }
  dev.attach_cellular(radio::CellularConfig::for_scenario(
      spec.network, spec.throttle_kbps, spec.mechanism));
}

std::unique_ptr<fault::FaultInjector> install_faults(
    core::QoeDoctor& doctor, const ScenarioSpec& spec) {
  if (spec.fault_plan.empty()) return nullptr;
  const fault::FaultPlan plan = fault::FaultPlan::parse(spec.fault_plan);
  auto injector =
      std::make_unique<fault::FaultInjector>(plan, spec.fault_seed);
  injector->install(doctor);
  return injector;
}

// Diurnal placement (spec.arrival_s): idle the run's virtual clock up to the
// session start, so merged campaign timelines interleave runs by when their
// users actually acted.
void advance_to_arrival(core::Testbed& bed, const ScenarioSpec& spec) {
  if (spec.arrival_s > 0) bed.advance(sim::sec_f(spec.arrival_s));
}

diag::DiagnosisEngine& enable_diagnosis(core::QoeDoctor& doctor,
                                        const fault::FaultInjector* injector) {
  diag::DiagnosisConfig cfg;
  if (injector != nullptr) {
    cfg.watermark_slack = injector->plan().max_lateness();
  }
  return doctor.enable_diagnosis(cfg);
}

// Installs the scenario's control policy (empty spec.policy = none): the
// engine watches the spine for layer-health rules, the diagnosis stream for
// finding rules, and reports into the same tracer track the collector uses.
std::unique_ptr<ctrl::PolicyEngine> install_policy(
    core::QoeDoctor& doctor, core::Testbed& bed,
    diag::DiagnosisEngine& engine, const ScenarioSpec& spec) {
  if (spec.policy.empty()) return nullptr;
  ctrl::PolicyEngineConfig cfg;
  cfg.policy = ctrl::Policy::parse(spec.policy);
  auto policy = std::make_unique<ctrl::PolicyEngine>(std::move(cfg));
  policy->set_observability(doctor.collector().observability());
  policy->attach(doctor.collector(), bed.loop());
  policy->watch(engine);
  policy->watch_flows(&doctor.flow_stats());
  return policy;
}

// Drives the scenario to completion under the policy: run to quiescence,
// then keep granting any extended deadline (idle virtual time still fires
// scheduled radio demotions/timeouts) until no extend outruns the clock.
// An abort decision stops the loop cooperatively at the firing instant.
void run_loop(core::Testbed& bed, ctrl::PolicyEngine* policy) {
  bed.loop().run();
  if (policy == nullptr) return;
  while (!bed.loop().stop_requested() &&
         policy->extend_until() > bed.loop().now()) {
    bed.loop().run_until(policy->extend_until());
  }
}

// Shared run epilogue: flush held fault records, finalize diagnosis (which
// may fire further policy decisions — captures over the trace ring, the
// reschedule flag), export every layer's metrics into the run registry, and
// capture this run's export artifacts.
void finish(core::Testbed& bed, core::QoeDoctor& doctor,
            fault::FaultInjector* injector, diag::DiagnosisEngine& engine,
            ctrl::PolicyEngine* policy, core::RunResult* out) {
  if (injector != nullptr) injector->flush();
  engine.finalize_all();
  engine.export_metrics(out->registry);
  if (injector != nullptr) injector->export_metrics(out->registry);
  doctor.collector().export_metrics(out->registry);
  doctor.flow_stats().export_metrics(out->registry);
  if (policy != nullptr) {
    policy->export_metrics(out->registry);
    out->reschedule_requested = policy->reschedule_requested();
    out->reschedule_reason = policy->reschedule_reason();
    out->artifacts.captures_jsonl = policy->captures_jsonl();
  }
  out->virtual_seconds = bed.loop().now().seconds();
  out->artifacts.findings_jsonl = diag::FindingsJsonlSink(engine).to_string();
  out->artifacts.timeline_jsonl =
      core::TimelineJsonlSink(doctor.collector()).to_string();
}

core::RunResult run_pageload(const ScenarioSpec& spec) {
  core::Testbed bed(spec.seed);
  apps::WebServer server(bed.network(), bed.next_server_ip());
  sim::Rng rng = bed.fork_rng("pages");
  const auto dataset =
      apps::make_page_dataset(rng, static_cast<std::size_t>(spec.pages));
  for (const auto& p : dataset) server.add_page(p);

  auto dev = bed.make_device("phone");
  attach_network(*dev, spec);
  apps::BrowserApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  auto injector = install_faults(doctor, spec);
  diag::DiagnosisEngine& engine = enable_diagnosis(doctor, injector.get());
  auto policy = install_policy(doctor, bed, engine, spec);
  core::BrowserDriver driver(doctor.controller(), app);
  advance_to_arrival(bed, spec);

  std::vector<std::string> urls;
  urls.reserve(dataset.size());
  for (const auto& p : dataset) urls.push_back("www.page.sim" + p.path);
  driver.load_pages(urls, sim::sec(spec.think_s),
                    [](const std::vector<core::BehaviorRecord>&) {});
  run_loop(bed, policy.get());

  core::RunResult out;
  for (const auto& rec : doctor.log().for_action("page_load")) {
    out.add_sample("latency_s",
                   sim::to_seconds(core::AppLayerAnalyzer::calibrate(rec)));
  }
  finish(bed, doctor, injector.get(), engine, policy.get(), &out);
  return out;
}

core::RunResult run_post(const ScenarioSpec& spec) {
  core::Testbed bed(spec.seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("phone");
  attach_network(*dev, spec);
  apps::SocialAppConfig app_cfg;
  app_cfg.refresh_interval = sim::Duration::zero();
  apps::SocialApp app(*dev, app_cfg);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  auto injector = install_faults(doctor, spec);
  diag::DiagnosisEngine& engine = enable_diagnosis(doctor, injector.get());
  auto policy = install_policy(doctor, bed, engine, spec);
  core::FacebookDriver driver(doctor.controller(), app);
  advance_to_arrival(bed, spec);
  app.login("svc-user");
  bed.advance(sim::sec(10));

  const apps::PostKind kind = spec.kind == "photos"
                                  ? apps::PostKind::kPhotos
                                  : spec.kind == "checkin"
                                        ? apps::PostKind::kCheckin
                                        : apps::PostKind::kStatus;
  core::RunResult out;
  core::repeat_async(
      bed.loop(), static_cast<std::size_t>(spec.reps), sim::sec(2),
      [&](std::size_t, std::function<void()> next) {
        driver.upload_post(kind, [&, next](const core::BehaviorRecord& rec) {
          if (!rec.timed_out) {
            out.add_sample(
                "latency_s",
                sim::to_seconds(core::AppLayerAnalyzer::calibrate(rec)));
          }
          next();
        });
      },
      [] {});
  run_loop(bed, policy.get());
  finish(bed, doctor, injector.get(), engine, policy.get(), &out);
  return out;
}

core::RunResult run_video(const ScenarioSpec& spec) {
  core::Testbed bed(spec.seed);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  sim::Rng vid_rng = bed.fork_rng("videos");
  for (auto& v :
       apps::make_video_dataset(vid_rng, 500e3, sim::sec(20), sim::sec(60))) {
    server.add_video(v);
  }
  auto dev = bed.make_device("phone");
  attach_network(*dev, spec);
  apps::VideoApp app(*dev);
  app.launch();
  app.connect();
  bed.advance(sim::sec(5));
  core::QoeDoctor doctor(*dev, app);
  auto injector = install_faults(doctor, spec);
  diag::DiagnosisEngine& engine = enable_diagnosis(doctor, injector.get());
  auto policy = install_policy(doctor, bed, engine, spec);
  core::YouTubeDriver driver(doctor.controller(), app);
  advance_to_arrival(bed, spec);

  core::RunResult out;
  sim::Rng pick = bed.fork_rng("pick");
  core::repeat_async(
      bed.loop(), static_cast<std::size_t>(spec.videos), sim::sec(5),
      [&](std::size_t, std::function<void()> next) {
        const char kw = static_cast<char>('a' + pick.uniform_int(0, 25));
        const std::string id =
            std::string(1, kw) + std::to_string(pick.uniform_int(0, 9));
        driver.watch_video(std::string(1, kw) + " video", id,
                           [&, next](const core::VideoWatchResult& r) {
                             if (!r.initial_loading.timed_out) {
                               out.add_sample(
                                   "loading_s",
                                   sim::to_seconds(
                                       core::AppLayerAnalyzer::calibrate(
                                           r.initial_loading)));
                             }
                             out.registry.add_counter(
                                 "video.stalls",
                                 static_cast<double>(r.stalls.size()));
                             next();
                           });
      },
      [] {});
  run_loop(bed, policy.get());
  finish(bed, doctor, injector.get(), engine, policy.get(), &out);
  return out;
}

}  // namespace

bool ScenarioSpec::parse_json(std::string_view json, ScenarioSpec* out,
                              std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  core::JsonLiteParser p(json);
  if (!p.enter_object()) return fail("spec: expected a JSON object");
  *out = ScenarioSpec{};
  std::string key;
  while (p.next_key(&key)) {
    bool parsed = true;
    double num = 0;
    if (key == "scenario") {
      parsed = p.read_string(&out->scenario);
    } else if (key == "network") {
      parsed = p.read_string(&out->network);
    } else if (key == "seed") {
      parsed = p.read_uint64(&out->seed);
    } else if (key == "pages") {
      parsed = p.read_number(&num);
      out->pages = static_cast<long>(num);
    } else if (key == "think") {
      parsed = p.read_number(&num);
      out->think_s = static_cast<long>(num);
    } else if (key == "kind") {
      parsed = p.read_string(&out->kind);
    } else if (key == "reps") {
      parsed = p.read_number(&num);
      out->reps = static_cast<long>(num);
    } else if (key == "videos") {
      parsed = p.read_number(&num);
      out->videos = static_cast<long>(num);
    } else if (key == "throttle") {
      parsed = p.read_number(&num);
      out->throttle_kbps = static_cast<long>(num);
    } else if (key == "mechanism") {
      parsed = p.read_string(&out->mechanism);
    } else if (key == "arrival") {
      parsed = p.read_number(&out->arrival_s);
    } else if (key == "fault_plan") {
      parsed = p.read_string(&out->fault_plan);
    } else if (key == "fault_seed") {
      parsed = p.read_uint64(&out->fault_seed);
    } else if (key == "policy") {
      parsed = p.read_string(&out->policy);
    } else if (key == "cmd" || key == "id") {
      parsed = p.skip_value();  // the serve protocol's envelope
    } else {
      return fail("spec: unknown key \"" + key + "\"");
    }
    if (!parsed) return fail("spec: malformed value for \"" + key + "\"");
  }
  if (!one_of(out->scenario, {"pageload", "post", "video"})) {
    return fail("spec: unknown scenario \"" + out->scenario + "\"");
  }
  if (!one_of(out->network, {"wifi", "3g", "3g-simplified", "lte"})) {
    return fail("spec: unknown network \"" + out->network + "\"");
  }
  if (!one_of(out->kind, {"status", "checkin", "photos"})) {
    return fail("spec: unknown kind \"" + out->kind + "\"");
  }
  if (!one_of(out->mechanism, {"shaping", "policing"})) {
    return fail("spec: unknown mechanism \"" + out->mechanism + "\"");
  }
  if (!out->policy.empty()) {
    // Surface policy grammar errors (with their byte offsets) at spec-parse
    // time, so a serve client gets the reason instead of a quarantined run.
    try {
      (void)ctrl::Policy::parse(out->policy);
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    }
  }
  return true;
}

std::string ScenarioSpec::to_json() const {
  std::ostringstream os;
  os << "{\"scenario\":";
  core::put_json_string(os, scenario);
  os << ",\"network\":";
  core::put_json_string(os, network);
  os << ",\"seed\":" << seed << ",\"pages\":" << pages
     << ",\"think\":" << think_s << ",\"kind\":";
  core::put_json_string(os, kind);
  os << ",\"reps\":" << reps << ",\"videos\":" << videos
     << ",\"throttle\":" << throttle_kbps << ",\"mechanism\":";
  core::put_json_string(os, mechanism);
  os << ",\"arrival\":";
  core::put_json_number(os, arrival_s);
  os << ",\"fault_plan\":";
  core::put_json_string(os, fault_plan);
  os << ",\"fault_seed\":" << fault_seed << ",\"policy\":";
  core::put_json_string(os, policy);
  os << '}';
  return os.str();
}

core::RunResult run_scenario(const ScenarioSpec& spec) {
  if (spec.scenario == "pageload") return run_pageload(spec);
  if (spec.scenario == "post") return run_post(spec);
  if (spec.scenario == "video") return run_video(spec);
  throw std::runtime_error("unknown scenario: " + spec.scenario);
}

core::RunResult run_scenario(const ScenarioSpec& spec,
                             const core::RunSpec& rs) {
  if (rs.reschedule == 0) return run_scenario(spec);
  // Mirror Campaign::ctrl_reseed, but rooted at the scenario's own seed:
  // fleet and serve workers run from spec.seed (not the campaign-derived
  // run seed), so the reschedule round seed must derive from it the same
  // way on both paths for batch/serve artifact equality.
  ScenarioSpec reseeded = spec;
  reseeded.seed = sim::Rng(spec.seed)
                      .fork("ctrl/" + std::to_string(rs.reschedule))
                      .seed();
  return run_scenario(reseeded);
}

}  // namespace qoed::svc
