// Scenario run specs and the one run pipeline (DESIGN.md §5g).
//
// A ScenarioSpec is the JSON-serializable description of ONE headless
// measurement run — the pageload/post/video scenarios. `qoed_cli fleet`
// reads one spec per line from a file and executes them as a campaign;
// `qoed_cli serve` accepts the same grammar over stdin or a Unix socket at
// runtime; `qoed_cli pageload|post|video` turns its flags into one and
// prints the run. All three execute it as a ScenarioRun.
//
// Determinism: run_scenario derives everything stochastic from spec.seed,
// so a spec executed by a batch fleet, a resumed fleet, or a serve worker
// produces the identical RunResult (and therefore identical artifacts).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/qoe_doctor.h"
#include "ctrl/policy_engine.h"
#include "fault/fault_injector.h"

namespace qoed::svc {

struct ScenarioSpec {
  std::string scenario = "pageload";  // pageload | post | video
  std::string network = "3g";         // wifi | 3g | 3g-simplified | lte
  std::uint64_t seed = 1;

  // pageload
  long pages = 5;
  long think_s = 20;

  // post
  std::string kind = "status";  // status | checkin | photos
  long reps = 10;

  // video
  long videos = 3;
  long throttle_kbps = 0;            // 0 = no throttle
  std::string mechanism = "shaping";  // shaping | policing

  // Session start offset into the run's virtual timeline (seconds). The
  // population generator (src/pop) uses it to place users on a diurnal
  // arrival curve; merged campaign timelines then interleave runs by their
  // actual virtual times instead of all starting at t=0.
  double arrival_s = 0;

  // Capture-fault injection (explicit only — the QOED_FAULT_PLAN env
  // fallback is a per-process knob and scenario runs must not depend on
  // ambient environment).
  std::string fault_plan;
  std::uint64_t fault_seed = 1;

  // Closed-loop control policy (ctrl::Policy grammar; empty = none). Rules
  // react to findings and layer health during the run: capture / extend /
  // abort / reschedule (see DESIGN.md §5i).
  std::string policy;

  // Parses one spec from a JSON object line; missing keys keep their
  // defaults and the serve protocol's "cmd" and "id" are skipped. False on
  // malformed JSON, an unknown key (a misspelt "throttle" must not silently
  // run unthrottled), an unknown scenario/network/kind/mechanism value or a
  // fault plan or policy that does not parse, with a reason naming it in
  // *error. qoed_cli's single-run flags go through the same checks.
  static bool parse_json(std::string_view json, ScenarioSpec* out,
                         std::string* error);

  // Canonical JSON form (parse_json round-trips it).
  std::string to_json() const;
};

// The instrument stage and epilogue every measured run shares (DESIGN.md
// §5g): scenario runs (fleet, serve, qoed_cli), each member of a cell run
// and the accuracy bench's runs all instrument their QoeDoctor here, so
// they report the same metrics the same way.
//
// The stage installs, in this order: capture faults (optional), first so
// every record passes the tap; live diagnosis, its watermark slack covering
// the fault plan's bounded lateness (it schedules no events, so it never
// changes the timeline); the control policy (optional).
class Instruments {
 public:
  // `faults`: an injector not yet installed, or null. `policy`: ctrl::Policy
  // grammar, empty for none (throws std::invalid_argument when malformed).
  // `trace` switches the doctor's span tracer on before the faults install,
  // because the fault lanes copy the collector's obs context at install.
  Instruments(core::QoeDoctor& doctor, sim::EventLoop& loop,
              std::unique_ptr<fault::FaultInjector> faults,
              const std::string& policy = "", bool trace = false);

  // Runs the loop to quiescence, then keeps granting any extended deadline
  // the policy set (idle virtual time still fires radio demotions and
  // timeouts) until none outruns the clock. An abort decision stops the
  // loop at the instant it fired.
  void run();

  // The epilogue: flushes held-back fault records, finalizes the diagnosis
  // (which may fire further policy decisions), exports the diagnosis,
  // fault, collector, flow and policy metrics into out->registry, and
  // records the policy's reschedule verdict and the virtual time in *out.
  void finish(core::RunResult* out);

  // Encodes the findings, timeline and policy capture JSONL. Separate from
  // finish() so runs that keep no artifacts skip the encoding.
  void encode_artifacts(core::RunArtifacts* out) const;

  fault::FaultInjector* injector() const { return injector_.get(); }
  ctrl::PolicyEngine* policy() const { return policy_.get(); }

 private:
  core::QoeDoctor& doctor_;
  sim::EventLoop& loop_;
  std::unique_ptr<fault::FaultInjector> injector_;
  diag::DiagnosisEngine* engine_ = nullptr;
  std::unique_ptr<ctrl::PolicyEngine> policy_;
};

// One measured scenario run (DESIGN.md §5g). The constructor builds the
// scenario in its construction order: testbed, server and dataset, device,
// app and its warm-up, QoeDoctor, the shared Instruments, driver, arrival
// idle, then starts the session. execute() drives it to completion and
// finish() returns its RunResult; a printer (qoed_cli) reads the device,
// doctor, injector and policy around finish(). Everything stochastic
// derives from spec.seed, so fleet, serve and qoed_cli runs of one spec
// produce the same artifacts.
class ScenarioRun {
 public:
  // `spec` must pass ScenarioSpec::parse_json's checks; throws on a bad
  // fault plan or policy. `trace` records the doctor's span trace.
  explicit ScenarioRun(const ScenarioSpec& spec, bool trace = false);
  // The session's callbacks hold `this`.
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  // Runs the session to completion under the spec's policy.
  void execute() { instruments_->run(); }
  // Samples ("latency_s" per action; video adds "loading_s" and a
  // video.stalls counter), then the instruments' epilogue and artifacts.
  // Call once, after execute().
  core::RunResult finish();

  device::Device& device() { return *dev_; }
  core::QoeDoctor& doctor() { return *doctor_; }
  fault::FaultInjector* injector() const { return instruments_->injector(); }
  ctrl::PolicyEngine* policy() const { return instruments_->policy(); }
  // What the session's callbacks saw (ui faults touch only the behavior
  // log): one record per post, one watch result per video.
  const std::vector<core::BehaviorRecord>& posts() const { return posts_; }
  const std::vector<core::VideoWatchResult>& videos() const {
    return videos_;
  }

 private:
  // Keeps one part of the scenario alive; parts are destroyed in reverse
  // order of construction, as a function's locals would be.
  template <class T, class... Args>
  T& own(Args&&... args) {
    auto part = std::make_shared<T>(std::forward<Args>(args)...);
    parts_.stack.push_back(part);
    return *part;
  }
  struct Parts {
    std::vector<std::shared_ptr<void>> stack;
    ~Parts() {
      while (!stack.empty()) stack.pop_back();
    }
  };

  device::Device& add_device();
  core::QoeDoctor& attach(apps::AndroidApp& app);
  void advance_to_arrival();
  void build_pageload();
  void build_post();
  void build_video();

  ScenarioSpec spec_;
  bool trace_;
  core::Testbed bed_;
  Parts parts_;
  device::Device* dev_ = nullptr;
  core::QoeDoctor* doctor_ = nullptr;
  Instruments* instruments_ = nullptr;
  std::vector<core::BehaviorRecord> posts_;
  std::vector<core::VideoWatchResult> videos_;
};

// Executes one scenario headlessly: ScenarioRun's construction, execute()
// and finish(). Throws on a bad fault/policy spec — the campaign retry
// policy turns that into a quarantined run.
core::RunResult run_scenario(const ScenarioSpec& spec);

// Campaign-context variant: the one entry point both the batch fleet
// factory and the serve worker use. Applies the ctrl reschedule reseed when
// rs.reschedule > 0 (deriving the round seed from spec.seed, exactly like
// Campaign::ctrl_reseed derives it from the run seed), so a rescheduled run
// produces identical artifacts on the batch and serve paths.
core::RunResult run_scenario(const ScenarioSpec& spec,
                             const core::RunSpec& rs);

}  // namespace qoed::svc
