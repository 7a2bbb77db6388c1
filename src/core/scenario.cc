#include "core/scenario.h"

#include <utility>

namespace qoed::core {

Testbed::Testbed(std::uint64_t seed)
    : rng_(seed), network_(loop_, rng_.fork("network")) {
  dns_ = std::make_unique<net::DnsServer>(network_, net::IpAddr(8, 8, 8, 8));
}

std::unique_ptr<device::Device> Testbed::make_device(const std::string& name) {
  const net::IpAddr ip(10, 0, 0, next_device_octet_++);
  return std::make_unique<device::Device>(network_, ip, name,
                                          rng_.fork("device-" + name),
                                          dns_->ip());
}

net::IpAddr Testbed::next_server_ip() {
  return net::IpAddr(203, 0, 113, next_server_octet_++);
}

void repeat_async(sim::EventLoop& loop, std::size_t n, sim::Duration gap,
                  std::function<void(std::size_t, std::function<void()>)> step,
                  std::function<void()> done) {
  if (n == 0) {
    if (done) done();
    return;
  }
  // Shared driver state so the recursion survives scope exit.
  struct State {
    sim::EventLoop& loop;
    std::size_t n;
    sim::Duration gap;
    std::function<void(std::size_t, std::function<void()>)> step;
    std::function<void()> done;
    std::size_t i = 0;
  };
  auto state = std::make_shared<State>(State{loop, n, gap, std::move(step),
                                             std::move(done)});
  // The closure holds itself weakly: only the pending event or `next`
  // callback keeps it alive, so the chain frees itself once it ends.
  auto run_one = std::make_shared<std::function<void()>>();
  *run_one = [state, weak = std::weak_ptr<std::function<void()>>(run_one)] {
    state->step(state->i, [state, self = weak.lock()] {
      if (++state->i >= state->n) {
        if (state->done) state->done();
        return;
      }
      state->loop.schedule_after(state->gap, [self] { (*self)(); });
    });
  };
  loop.schedule_after(sim::Duration::zero(), [run_one] { (*run_one)(); });
}

}  // namespace qoed::core
