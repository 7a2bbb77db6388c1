#include "svc/run_spec.h"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "apps/social_server.h"
#include "apps/video_server.h"
#include "apps/web_server.h"
#include "core/json_util.h"
#include "diag/diagnosis_engine.h"
#include "diag/findings_sink.h"
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

}  // namespace

Instruments::Instruments(core::QoeDoctor& doctor, sim::EventLoop& loop,
                         std::unique_ptr<fault::FaultInjector> faults,
                         const std::string& policy, bool trace)
    : doctor_(doctor), loop_(loop), injector_(std::move(faults)) {
  doctor.obs().tracer.set_enabled(trace);
  diag::DiagnosisConfig cfg;
  if (injector_ != nullptr) {
    injector_->install(doctor);
    // Late-released records must still land inside their window.
    cfg.watermark_slack = injector_->plan().max_lateness();
  }
  engine_ = &doctor.enable_diagnosis(cfg);
  if (policy.empty()) return;
  ctrl::PolicyEngineConfig policy_cfg;
  policy_cfg.policy = ctrl::Policy::parse(policy);
  policy_ = std::make_unique<ctrl::PolicyEngine>(std::move(policy_cfg));
  policy_->set_observability(doctor.collector().observability());
  policy_->attach(doctor.collector(), loop);
  policy_->watch(*engine_);
  policy_->watch_flows(&doctor.flow_stats());
}

void Instruments::run() {
  loop_.run();
  if (policy_ == nullptr) return;
  while (!loop_.stop_requested() && policy_->extend_until() > loop_.now()) {
    loop_.run_until(policy_->extend_until());
  }
}

void Instruments::finish(core::RunResult* out) {
  if (injector_ != nullptr) injector_->flush();
  engine_->finalize_all();
  engine_->export_metrics(out->registry);
  if (injector_ != nullptr) injector_->export_metrics(out->registry);
  doctor_.collector().export_metrics(out->registry);
  doctor_.flow_stats().export_metrics(out->registry);
  if (policy_ != nullptr) {
    policy_->export_metrics(out->registry);
    out->reschedule_requested = policy_->reschedule_requested();
    out->reschedule_reason = policy_->reschedule_reason();
  }
  out->virtual_seconds = loop_.now().seconds();
}

void Instruments::encode_artifacts(core::RunArtifacts* out) const {
  out->findings_jsonl = diag::FindingsJsonlSink(*engine_).to_string();
  out->timeline_jsonl =
      core::TimelineJsonlSink(doctor_.collector()).to_string();
  if (policy_ != nullptr) out->captures_jsonl = policy_->captures_jsonl();
}

ScenarioRun::ScenarioRun(const ScenarioSpec& spec, bool trace)
    : spec_(spec), trace_(trace), bed_(spec.seed) {
  if (spec.scenario == "pageload") {
    build_pageload();
  } else if (spec.scenario == "post") {
    build_post();
  } else if (spec.scenario == "video") {
    build_video();
  } else {
    throw std::runtime_error("unknown scenario: " + spec.scenario);
  }
}

device::Device& ScenarioRun::add_device() {
  std::shared_ptr<device::Device> dev = bed_.make_device("phone");
  parts_.stack.push_back(dev);
  dev_ = dev.get();
  if (spec_.network == "wifi") {
    dev_->attach_wifi();
  } else {
    dev_->attach_cellular(radio::CellularConfig::for_scenario(
        spec_.network, spec_.throttle_kbps, spec_.mechanism));
  }
  return *dev_;
}

core::QoeDoctor& ScenarioRun::attach(apps::AndroidApp& app) {
  doctor_ = &own<core::QoeDoctor>(*dev_, app);
  std::unique_ptr<fault::FaultInjector> faults;
  if (!spec_.fault_plan.empty()) {
    faults = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(spec_.fault_plan), spec_.fault_seed);
  }
  instruments_ = &own<Instruments>(*doctor_, bed_.loop(), std::move(faults),
                                   spec_.policy, trace_);
  return *doctor_;
}

// Diurnal placement (spec.arrival_s): idle the run's virtual clock up to the
// session start, so merged campaign timelines interleave runs by when their
// users actually acted.
void ScenarioRun::advance_to_arrival() {
  if (spec_.arrival_s > 0) bed_.advance(sim::sec_f(spec_.arrival_s));
}

void ScenarioRun::build_pageload() {
  auto& server = own<apps::WebServer>(bed_.network(), bed_.next_server_ip());
  sim::Rng rng = bed_.fork_rng("pages");
  const auto dataset =
      apps::make_page_dataset(rng, static_cast<std::size_t>(spec_.pages));
  for (const auto& p : dataset) server.add_page(p);

  auto& app = own<apps::BrowserApp>(add_device());
  app.launch();
  auto& driver = own<core::BrowserDriver>(attach(app).controller(), app);
  advance_to_arrival();

  std::vector<std::string> urls;
  urls.reserve(dataset.size());
  for (const auto& p : dataset) urls.push_back("www.page.sim" + p.path);
  driver.load_pages(urls, sim::sec(spec_.think_s),
                    [](const std::vector<core::BehaviorRecord>&) {});
}

void ScenarioRun::build_post() {
  own<apps::SocialServer>(bed_.network(), bed_.next_server_ip());
  apps::SocialAppConfig app_cfg;
  app_cfg.refresh_interval = sim::Duration::zero();
  auto& app = own<apps::SocialApp>(add_device(), app_cfg);
  app.launch();
  auto& driver = own<core::FacebookDriver>(attach(app).controller(), app);
  advance_to_arrival();
  app.login("svc-user");
  bed_.advance(sim::sec(10));

  const apps::PostKind kind = spec_.kind == "photos"
                                  ? apps::PostKind::kPhotos
                                  : spec_.kind == "checkin"
                                        ? apps::PostKind::kCheckin
                                        : apps::PostKind::kStatus;
  core::repeat_async(
      bed_.loop(), static_cast<std::size_t>(spec_.reps), sim::sec(2),
      [this, &driver, kind](std::size_t, std::function<void()> next) {
        driver.upload_post(kind, [this, next](const core::BehaviorRecord& rec) {
          posts_.push_back(rec);
          next();
        });
      },
      [] {});
}

void ScenarioRun::build_video() {
  auto& server = own<apps::VideoServer>(bed_.network(), bed_.next_server_ip());
  sim::Rng vid_rng = bed_.fork_rng("videos");
  for (auto& v :
       apps::make_video_dataset(vid_rng, 500e3, sim::sec(20), sim::sec(60))) {
    server.add_video(v);
  }
  auto& app = own<apps::VideoApp>(add_device());
  app.launch();
  app.connect();
  bed_.advance(sim::sec(5));
  auto& driver = own<core::YouTubeDriver>(attach(app).controller(), app);
  advance_to_arrival();

  auto& pick = own<sim::Rng>(bed_.fork_rng("pick"));
  core::repeat_async(
      bed_.loop(), static_cast<std::size_t>(spec_.videos), sim::sec(5),
      [this, &driver, &pick](std::size_t, std::function<void()> next) {
        const char kw = static_cast<char>('a' + pick.uniform_int(0, 25));
        const std::string id =
            std::string(1, kw) + std::to_string(pick.uniform_int(0, 9));
        driver.watch_video(std::string(1, kw) + " video", id,
                           [this, next](const core::VideoWatchResult& r) {
                             videos_.push_back(r);
                             next();
                           });
      },
      [] {});
}

core::RunResult ScenarioRun::finish() {
  core::RunResult out;
  const auto latency = [](const core::BehaviorRecord& rec) {
    return sim::to_seconds(core::AppLayerAnalyzer::calibrate(rec));
  };
  // Page loads come from the behavior log as the run left it, before the
  // epilogue flushes held-back fault records into it.
  if (spec_.scenario == "pageload") {
    for (const auto& rec : doctor_->log().for_action("page_load")) {
      out.add_sample("latency_s", latency(rec));
    }
  }
  for (const core::BehaviorRecord& rec : posts_) {
    if (!rec.timed_out) out.add_sample("latency_s", latency(rec));
  }
  for (const core::VideoWatchResult& r : videos_) {
    if (!r.initial_loading.timed_out) {
      out.add_sample("loading_s", latency(r.initial_loading));
    }
    out.registry.add_counter("video.stalls",
                             static_cast<double>(r.stalls.size()));
  }
  instruments_->finish(&out);
  instruments_->encode_artifacts(&out.artifacts);
  return out;
}

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
  // Surface fault-plan and policy grammar errors (with their byte offsets)
  // at spec-parse time, so a serve client or a qoed_cli user gets the
  // reason instead of a quarantined run.
  try {
    if (!out->fault_plan.empty()) {
      (void)fault::FaultPlan::parse(out->fault_plan);
    }
    if (!out->policy.empty()) (void)ctrl::Policy::parse(out->policy);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
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
  ScenarioRun run(spec);
  run.execute();
  return run.finish();
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
