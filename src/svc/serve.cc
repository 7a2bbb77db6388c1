#include "svc/serve.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "core/json_util.h"

namespace qoed::svc {

namespace {

// An open-ended session plans no run count, builds no campaign trace and
// has no manifest to resume: a config asking for one is an error, not a
// setting to ignore.
void require_open_ended(const core::CampaignConfig& cfg) {
  const char* field = cfg.runs != 0      ? "runs"
                      : cfg.trace        ? "trace"
                      : cfg.shard.resume ? "shard.resume"
                                         : nullptr;
  if (field != nullptr) {
    throw std::invalid_argument(
        std::string("serve: an open-ended session cannot honour ") + field);
  }
}

// Serve events for one committed run: its ctrl reschedules, its findings
// (stamped with the run id by core::stamp_findings, the rule the merged
// findings.jsonl uses), a quarantine marker for failed runs, then the run
// summary. Everything comes from the commit's serialized bytes, so events
// match the shard artifacts exactly.
std::string format_commit(const core::ShardedCampaignSink::Commit& c) {
  std::ostringstream os;
  for (std::size_t r = 1; r <= c.reschedules; ++r) {
    os << "{\"event\":\"reschedule\",\"id\":" << c.run_index
       << ",\"round\":" << r << "}\n";
  }
  std::string findings;
  core::stamp_findings(
      "\"event\":\"finding\",\"id\":" + std::to_string(c.run_index),
      c.findings_jsonl, &findings);
  os << findings;
  if (!c.ok) {
    os << "{\"event\":\"quarantine\",\"id\":" << c.run_index
       << ",\"attempts\":" << c.attempts << ",\"error\":";
    core::put_json_string(os, std::string(c.error));
    os << "}\n";
  }
  os << "{\"event\":\"run\",\"id\":" << c.run_index
     << ",\"ok\":" << (c.ok ? "true" : "false")
     << ",\"attempts\":" << c.attempts << ",\"resched\":" << c.reschedules
     << ",\"seed\":" << c.last_seed << ",\"error\":";
  core::put_json_string(os, std::string(c.error));
  os << ",\"virtual_s\":";
  core::put_json_number(os, c.virtual_seconds);
  os << ",\"registry\":"
     << (c.registry_json.empty() ? std::string_view("{}") : c.registry_json)
     << "}\n";
  return os.str();
}

}  // namespace

ServeEngine::ServeEngine(std::istream& in, std::ostream& out,
                         core::CampaignConfig cfg)
    : in_(in), out_(out), cfg_(std::move(cfg)) {
  require_open_ended(cfg_);
  // jobs as in Campaign::run: 0 = hardware concurrency.
  if (cfg_.jobs == 0) {
    cfg_.jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  sink_ = std::make_unique<core::ShardedCampaignSink>(
      cfg_.shard, cfg_.name, cfg_.master_seed, /*planned_runs=*/0, cfg_.jobs);
  sink_->set_commit_hook([this](const core::ShardedCampaignSink::Commit& c) {
    const std::string events = format_commit(c);
    {
      std::lock_guard<std::mutex> lock(out_mu_);
      out_ << events;
      out_.flush();
    }
    committed_.store(c.run_index + 1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
    }
    progress_cv_.notify_all();
  });
}

ServeEngine::~ServeEngine() {
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    stopping_ = true;
  }
  q_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ServeEngine::worker_main() {
  for (;;) {
    std::size_t index = 0;
    ScenarioSpec spec;
    {
      std::unique_lock<std::mutex> lock(q_mu_);
      q_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left
      index = queue_.front();
      queue_.pop_front();
      spec = specs_[index];
    }
    core::RunSpec base;
    base.run_index = index;
    base.master_seed = cfg_.master_seed;
    // The spec carries its own seed: the campaign-derived attempt seed is
    // ignored, so serve and a batch fleet over the same specs produce
    // byte-identical per-run artifacts. Reschedule rounds reseed from
    // spec.seed via the shared run_scenario overload — again identically
    // on both paths.
    const core::RunFn fn = [&spec](std::uint64_t, const core::RunSpec& rs) {
      return run_scenario(spec, rs);
    };
    core::RunExecution ex = core::execute_run_with_policy(cfg_, fn, base);
    sink_->submit(index, std::move(ex));
  }
}

void ServeEngine::reply(const std::string& line) {
  std::lock_guard<std::mutex> lock(out_mu_);
  out_ << line << '\n';
  out_.flush();
}

void ServeEngine::reply_error(const std::string& error) {
  std::string line = "{\"ok\":false,\"error\":";
  core::append_json_string(line, error);
  reply(line + '}');
}

void ServeEngine::wait_drained() {
  std::unique_lock<std::mutex> lock(progress_mu_);
  progress_cv_.wait(lock, [this] {
    return committed_.load(std::memory_order_acquire) >=
           submitted_.load(std::memory_order_acquire);
  });
}

int ServeEngine::shutdown_now(bool ack) {
  wait_drained();
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    stopping_ = true;
  }
  q_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  int rc = 0;
  std::string error;
  try {
    sink_->finalize();
  } catch (const std::exception& e) {
    rc = 1;
    error = e.what();
  }
  if (rc == 0 && !cfg_.shard.out_dir.empty() &&
      !core::write_merged_artifacts(cfg_.shard.out_dir, &error)) {
    rc = 1;
  }
  if (ack && rc != 0) {
    reply_error(error);
  } else if (ack) {
    reply("{\"ok\":true,\"shutdown\":true,\"runs\":" +
          std::to_string(committed_.load(std::memory_order_acquire)) + '}');
  }
  return rc;
}

void ServeEngine::handle_line(const std::string& line, bool* shutdown) {
  std::string cmd;
  {
    core::JsonLiteParser p(line);
    std::string key;
    bool parsed = p.enter_object();
    while (parsed && p.next_key(&key)) {
      if (key == "cmd") {
        parsed = p.read_string(&cmd);
      } else {
        parsed = p.skip_value();
      }
    }
    if (!parsed || !p.at_end()) {
      reply_error(key.empty() ? "malformed command line"
                              : "malformed command line at \"" + key + "\"");
      return;
    }
  }
  if (cmd == "submit") {
    ScenarioSpec spec;
    std::string error;
    if (!ScenarioSpec::parse_json(line, &spec, &error)) {
      reply_error(error);
      return;
    }
    // The ack is written under out_mu_ around the enqueue so this run's
    // commit events cannot precede it.
    std::lock_guard<std::mutex> out_lock(out_mu_);
    std::size_t id = 0;
    {
      std::lock_guard<std::mutex> lock(q_mu_);
      id = specs_.size();
      specs_.push_back(std::move(spec));
      queue_.push_back(id);
    }
    submitted_.fetch_add(1, std::memory_order_acq_rel);
    q_cv_.notify_one();
    out_ << "{\"ok\":true,\"id\":" << id << "}\n";
    out_.flush();
    return;
  }
  if (cmd == "status") {
    // Read counters before taking out_mu_ — never touch the sink under it.
    const std::size_t submitted = submitted_.load(std::memory_order_acquire);
    const std::size_t committed = committed_.load(std::memory_order_acquire);
    std::ostringstream os;
    os << "{\"ok\":true,\"submitted\":" << submitted
       << ",\"committed\":" << committed
       << ",\"pending\":" << (submitted - committed) << '}';
    reply(os.str());
    return;
  }
  if (cmd == "stats") {
    // Live fleet-metrics snapshot. Gather from the sink FIRST: the commit
    // hook takes out_mu_ while holding the sink's internal lock, so calling
    // into the sink under out_mu_ (inside reply) would invert the order.
    const std::string snapshot = sink_->metrics_snapshot();
    const std::size_t committed = committed_.load(std::memory_order_acquire);
    std::ostringstream os;
    os << "{\"ok\":true,\"committed\":" << committed
       << ",\"metrics\":" << snapshot << '}';
    reply(os.str());
    return;
  }
  if (cmd == "drain") {
    wait_drained();
    std::ostringstream os;
    os << "{\"ok\":true,\"drained\":"
       << committed_.load(std::memory_order_acquire) << '}';
    reply(os.str());
    return;
  }
  if (cmd == "shutdown") {
    *shutdown = true;
    return;
  }
  reply_error("unknown cmd \"" + cmd + "\"");
}

int ServeEngine::run() {
  workers_.reserve(cfg_.jobs);
  for (std::size_t i = 0; i < cfg_.jobs; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  std::string line;
  while (std::getline(in_, line)) {
    if (line.empty()) continue;
    bool shutdown = false;
    handle_line(line, &shutdown);
    if (shutdown) return shutdown_now(/*ack=*/true);
  }
  return shutdown_now(/*ack=*/false);  // EOF = implicit shutdown
}

namespace {

// Minimal bidirectional streambuf over a connected socket fd.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }
  int_type overflow(int_type ch) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

int serve_over_socket(const std::string& path,
                      const core::CampaignConfig& cfg) {
  require_open_ended(cfg);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) return 2;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listener);
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    ::close(listener);
    return 2;
  }
  const int client = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (client < 0) {
    ::unlink(path.c_str());
    return 2;
  }
  int rc = 0;
  {
    FdStreamBuf buf(client);
    std::istream in(&buf);
    std::ostream out(&buf);
    ServeEngine engine(in, out, cfg);
    rc = engine.run();
  }
  ::close(client);
  ::unlink(path.c_str());
  return rc;
}

}  // namespace qoed::svc
