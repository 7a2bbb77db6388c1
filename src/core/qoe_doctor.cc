#include "core/qoe_doctor.h"

namespace qoed::core {

QoeDoctor::QoeDoctor(device::Device& dev, apps::AndroidApp& app,
                     UiControllerConfig cfg)
    : device_(dev),
      controller_(dev, app, cfg),
      flow_stats_(dev.ip()),
      flows_(dev.trace().records()) {
  const obs::Context ctx = obs_.context(obs_.tracer.track("device:" + dev.name()));
  collector_.set_observability(ctx);
  flows_.set_observability(ctx);
  flow_stats_.set_observability(ctx);
  flow_stats_.attach(dev.network());
  collector_.attach(dev, controller_.log());
  flows_.attach(collector_);
}

void QoeDoctor::reset_collection() { collector_.clear(); }

}  // namespace qoed::core
