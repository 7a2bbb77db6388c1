#include "radio/rrc_machine.h"

#include <utility>

#include "sim/log.h"

namespace qoed::radio {

RrcMachine::RrcMachine(sim::EventLoop& loop, RrcConfig config)
    : loop_(loop),
      cfg_(std::move(config)),
      state_(cfg_.idle_state()),
      promotion_target_(state_) {}

void RrcMachine::add_observer(TransitionObserver obs) {
  observers_.push_back(std::move(obs));
}

void RrcMachine::request_transfer(std::size_t queued_bytes,
                                  ReadyCallback ready) {
  if (transfer_capable()) {
    on_activity(queued_bytes);
    if (ready) ready();
    return;
  }
  if (ready) waiting_.push_back(std::move(ready));
  if (promoting()) return;

  if (cfg_.tech == RadioTech::k3G) {
    if (!cfg_.has_fach) {
      start_promotion(RrcState::kDch, cfg_.promo_pch_to_dch);
    } else if (queued_bytes > cfg_.fach_to_dch_threshold_bytes) {
      // Large buffer: the network takes the device straight to DCH; we model
      // it as the two promotions back to back.
      start_promotion(RrcState::kDch,
                      cfg_.promo_pch_to_fach + cfg_.promo_fach_to_dch);
    } else {
      start_promotion(RrcState::kFach, cfg_.promo_pch_to_fach);
    }
    return;
  }
  switch (state_) {
    case RrcState::kLteShortDrx:
      start_promotion(RrcState::kLteConnected, cfg_.short_drx_wake);
      break;
    case RrcState::kLteLongDrx:
      start_promotion(RrcState::kLteConnected, cfg_.long_drx_wake);
      break;
    default:
      start_promotion(RrcState::kLteConnected, cfg_.promo_idle_to_connected);
      break;
  }
}

void RrcMachine::on_activity(std::size_t queued_bytes) {
  if (state_ == RrcState::kFach &&
      queued_bytes > cfg_.fach_to_dch_threshold_bytes && !promoting()) {
    start_promotion(RrcState::kDch, cfg_.promo_fach_to_dch);
    return;
  }
  if (transfer_capable()) arm_demotion_timer();
}

void RrcMachine::start_promotion(RrcState target, sim::Duration delay) {
  if (promotion_delay_hook_) {
    const sim::Duration extra = promotion_delay_hook_(target);
    delay += extra;
    hook_delay_total_ += extra;
  }
  promotion_target_ = target;
  ++promotions_;
  demotion_timer_.cancel();
  promotion_timer_ = loop_.schedule_after(delay, [this] {
    transition_to(promotion_target_);
    flush_ready();
    arm_demotion_timer();
  });
}

void RrcMachine::flush_ready() {
  auto waiting = std::move(waiting_);
  waiting_.clear();
  for (auto& cb : waiting) cb();
}

void RrcMachine::arm_demotion_timer() {
  sim::Duration delay{};
  switch (state_) {
    case RrcState::kDch:
      delay = cfg_.has_fach ? cfg_.dch_to_fach_timer : cfg_.dch_to_pch_timer;
      break;
    case RrcState::kFach:
      delay = cfg_.fach_to_pch_timer;
      break;
    case RrcState::kLteConnected:
      delay = cfg_.connected_to_short_drx;
      break;
    case RrcState::kLteShortDrx:
      delay = cfg_.short_to_long_drx;
      break;
    case RrcState::kLteLongDrx:
      delay = cfg_.long_drx_to_idle;
      break;
    default:
      demotion_timer_.cancel();  // low-power states have no demotion timer
      return;
  }
  if (demotion_timer_.reschedule(loop_.now() + delay)) return;
  demotion_timer_ =
      loop_.schedule_after(delay, [this] { on_demotion_timer(); });
}

void RrcMachine::on_demotion_timer() {
  ++demotions_;
  switch (state_) {
    case RrcState::kDch:
      transition_to(cfg_.has_fach ? RrcState::kFach : RrcState::kPch);
      break;
    case RrcState::kFach:
      transition_to(RrcState::kPch);
      break;
    case RrcState::kLteConnected:
      transition_to(RrcState::kLteShortDrx);
      break;
    case RrcState::kLteShortDrx:
      transition_to(RrcState::kLteLongDrx);
      break;
    case RrcState::kLteLongDrx:
      transition_to(RrcState::kLteIdle);
      break;
    default:
      break;
  }
  arm_demotion_timer();
}

void RrcMachine::transition_to(RrcState next) {
  if (next == state_) return;
  const RrcState from = state_;
  state_ = next;
  sim::log_debug(loop_.now(), "rrc",
                 std::string(to_string(from)) + " -> " + to_string(next));
  for (const auto& obs : observers_) obs(from, next, loop_.now());
}

}  // namespace qoed::radio
