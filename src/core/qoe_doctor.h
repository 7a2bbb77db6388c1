// QoE Doctor facade (§3, Fig. 3).
//
// Ties together the two halves of the tool for one device+app pair:
//   - the online QoE-aware UI controller (replay + data collection), and
//   - the multi-layer QoE analysis over the collected logs (AppBehaviorLog,
//     packet trace, QxDM radio log): the streaming flows(), the cross-layer
//     functions over them, RlcMapper::map, and diag::RrcStateTracker for
//     the radio layer.
//
// Umbrella header: including this pulls in the core public API.
#pragma once

#include <memory>

#include "core/app_analyzer.h"
#include "core/behavior_log.h"
#include "core/campaign.h"
#include "core/collector.h"
#include "core/cross_layer_analyzer.h"
#include "core/drivers.h"
#include "core/export_sink.h"
#include "core/flow_analyzer.h"
#include "core/report.h"
#include "core/rlc_mapper.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "core/ui_controller.h"
#include "core/view_signature.h"
#include "obs/flow_stats.h"

namespace qoed::diag {
class DiagnosisEngine;
struct DiagnosisConfig;
}  // namespace qoed::diag

namespace qoed::core {

class QoeDoctor {
 public:
  QoeDoctor(device::Device& dev, apps::AndroidApp& app,
            UiControllerConfig cfg = {});

  UiController& controller() { return controller_; }
  AppBehaviorLog& log() { return controller_.log(); }
  device::Device& device() { return device_; }

  // The unified collection spine: merged cross-layer timeline, subscriber
  // API, per-layer counters, start/stop/clear control.
  Collector& collector() { return collector_; }
  const Collector& collector() const { return collector_; }

  // The streaming transport-layer analysis, kept current by the spine.
  FlowAnalyzer& flows() { return flows_; }

  // Per-flow TCP transport observability (DESIGN.md §5j): registered on the
  // device's network at construction and scoped to flows touching the
  // device's address, it tracks retransmissions, srtt/rttvar, duplicate-ACK
  // depth and bytes-in-flight from the sender's vantage on both endpoints.
  // Feeds flow.* metrics, trace counter tracks, per-finding transport
  // evidence and flow.* policy subjects.
  obs::FlowStatsTracker& flow_stats() { return flow_stats_; }
  const obs::FlowStatsTracker& flow_stats() const { return flow_stats_; }

  // Per-device observability bundle: the wall-clock profile registry and
  // the virtual-time tracer every attached component (collector, flow
  // analyzer, diagnosis engine, fault lanes) records into. Tracing is off
  // by default; call obs().tracer.set_enabled(true) before the scenario
  // runs. The device records on one track named "device:<name>".
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  // Clears all collected data (behavior log, trace, radio log) so separate
  // experiment phases don't contaminate each other. Drop counters reset
  // with the stores; high-water marks survive.
  void reset_collection();

  // Live diagnosis (src/diag): creates — once — a diag::DiagnosisEngine
  // subscribed to the spine, so UI-latency windows are attributed online as
  // the experiment runs. Defined in the qoed_diag library; calling it
  // requires linking qoed::diag (qoed_core itself stays diag-free).
  diag::DiagnosisEngine& enable_diagnosis();
  diag::DiagnosisEngine& enable_diagnosis(const diag::DiagnosisConfig& cfg);
  // The engine, or null when enable_diagnosis was never called.
  diag::DiagnosisEngine* diagnosis() const { return diagnosis_.get(); }

 private:
  device::Device& device_;
  UiController controller_;
  // Declared before collector_/flows_: they hold obs::Contexts pointing
  // into this bundle, so it must outlive them.
  obs::Observability obs_;
  obs::FlowStatsTracker flow_stats_;
  Collector collector_;   // declared before flows_: flows_ detaches first
  FlowAnalyzer flows_;
  // shared_ptr so the incomplete type destroys cleanly from core TUs; the
  // engine unsubscribes from collector_ in its own destructor, which runs
  // first (last-declared member).
  std::shared_ptr<diag::DiagnosisEngine> diagnosis_;
};

}  // namespace qoed::core
