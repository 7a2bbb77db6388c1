#include "apps/video_server.h"

#include <algorithm>
#include <utility>

namespace qoed::apps {

VideoServer::VideoServer(net::Network& network, net::IpAddr ip,
                         VideoServerConfig cfg)
    : network_(network), cfg_(std::move(cfg)) {
  host_ = std::make_unique<net::Host>(network, ip, "video-server");
  network.register_hostname(cfg_.hostname, ip);
  host_->tcp().listen(cfg_.port, [this](std::shared_ptr<net::TcpSocket> s) {
    on_accept(std::move(s));
  });
}

sim::Duration VideoServer::jittered(sim::Duration nominal) {
  if (cfg_.processing_jitter <= 0) return nominal;
  const double f = jitter_rng_.uniform(1 - cfg_.processing_jitter,
                                       1 + cfg_.processing_jitter);
  return sim::sec_f(sim::to_seconds(nominal) * f);
}

void VideoServer::add_video(VideoMeta meta) {
  catalog_[meta.id] = std::move(meta);
}

const VideoMeta* VideoServer::find_video(const std::string& id) const {
  auto it = catalog_.find(id);
  return it == catalog_.end() ? nullptr : &it->second;
}

std::vector<const VideoMeta*> VideoServer::search(const std::string& query,
                                                  std::size_t limit) const {
  std::vector<const VideoMeta*> out;
  for (const auto& [id, meta] : catalog_) {
    if (meta.title.find(query) != std::string::npos) {
      out.push_back(&meta);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

void VideoServer::on_accept(std::shared_ptr<net::TcpSocket> sock) {
  sockets_.push_back(sock);
  auto* raw = sock.get();
  raw->set_on_message([this, raw](const net::AppMessage& m) {
    handle_message(raw->shared_from_this(), m);
  });
  raw->set_on_closed([this, raw] {
    cancel_streams_on(raw);
    std::erase_if(sockets_, [raw](const auto& s) { return s.get() == raw; });
  });
}

void VideoServer::handle_message(const std::shared_ptr<net::TcpSocket>& sock,
                                 const net::AppMessage& m) {
  if (m.type == "SEARCH") {
    const std::string query = m.header("query");
    network_.loop().schedule_after(jittered(cfg_.request_processing),
                                   [this, sock, query] {
      auto results = search(query);
      net::AppMessage resp{.type = "SEARCH_RESULTS",
                           .size = cfg_.search_response_bytes};
      std::string ids;
      for (const auto* v : results) {
        if (!ids.empty()) ids += ',';
        ids += v->id;
      }
      resp.headers["ids"] = ids;
      sock->send(std::move(resp));
    });
    return;
  }
  if (m.type == "VIDEO_REQUEST") {
    const VideoMeta* meta = find_video(m.header("id"));
    if (meta == nullptr) {
      net::AppMessage resp{.type = "VIDEO_NOT_FOUND", .size = 500};
      sock->send(std::move(resp));
      return;
    }
    network_.loop().schedule_after(
        jittered(cfg_.request_processing),
        [this, sock, meta = *meta] { start_stream(sock, meta); });
    return;
  }
  if (m.type == "VIDEO_STOP") {
    cancel_streams_on(sock.get());
  }
}

void VideoServer::start_stream(const std::shared_ptr<net::TcpSocket>& sock,
                               const VideoMeta& meta) {
  ++streams_started_;
  auto stream = std::make_shared<Stream>();
  stream->sock = sock;
  stream->meta = meta;
  streams_.push_back(stream);

  // Stream manifest first: the player learns bitrate and size from it.
  net::AppMessage head{.type = "VIDEO_META", .size = 1'800};
  head.headers["id"] = meta.id;
  head.headers["bitrate"] = std::to_string(meta.bitrate_bps);
  head.headers["total_bytes"] = std::to_string(meta.size_bytes());
  sock->send(std::move(head));

  // Initial burst: several seconds of content handed to TCP immediately.
  const std::uint64_t burst_bytes = static_cast<std::uint64_t>(
      cfg_.initial_burst_seconds * meta.bitrate_bps / 8.0);
  while (stream->sent_bytes <
             std::min<std::uint64_t>(burst_bytes, meta.size_bytes()) &&
         !stream->cancelled) {
    send_chunk(stream);
  }
  pace_stream(stream);
}

void VideoServer::send_chunk(const std::shared_ptr<Stream>& stream) {
  const std::uint64_t total = stream->meta.size_bytes();
  if (stream->sent_bytes >= total) return;
  const std::uint64_t n =
      std::min<std::uint64_t>(cfg_.chunk_bytes, total - stream->sent_bytes);
  stream->sent_bytes += n;
  net::AppMessage chunk{.type = "VIDEO_DATA", .size = n};
  chunk.headers["id"] = stream->meta.id;
  if (stream->sent_bytes >= total) chunk.headers["final"] = "1";
  stream->sock->send(std::move(chunk));
}

void VideoServer::pace_stream(const std::shared_ptr<Stream>& stream) {
  if (stream->cancelled || stream->sent_bytes >= stream->meta.size_bytes()) {
    std::erase_if(streams_,
                  [&](const auto& s) { return s.get() == stream.get(); });
    return;
  }
  const double paced_bps = stream->meta.bitrate_bps * cfg_.pacing_factor;
  const sim::Duration interval =
      sim::sec_f(cfg_.chunk_bytes * 8.0 / paced_bps);
  stream->pacer = network_.loop().schedule_after(interval, [this, stream] {
    send_chunk(stream);
    pace_stream(stream);
  });
}

void VideoServer::cancel_streams_on(const net::TcpSocket* sock) {
  for (auto& s : streams_) {
    if (s->sock.get() == sock) {
      s->cancelled = true;
      s->pacer.cancel();
    }
  }
  std::erase_if(streams_, [](const auto& s) { return s->cancelled; });
}

std::vector<VideoMeta> make_video_dataset(sim::Rng& rng, double bitrate_bps,
                                          sim::Duration min_duration,
                                          sim::Duration max_duration) {
  std::vector<VideoMeta> out;
  for (char kw = 'a'; kw <= 'z'; ++kw) {
    for (int i = 0; i < 10; ++i) {
      VideoMeta v;
      v.id = std::string(1, kw) + std::to_string(i);
      v.title = std::string(1, kw) + " video " + std::to_string(i);
      const double frac = rng.uniform();
      v.duration = min_duration + sim::sec_f(frac * sim::to_seconds(
                                                        max_duration -
                                                        min_duration));
      v.bitrate_bps = bitrate_bps;
      out.push_back(std::move(v));
    }
  }
  return out;
}

}  // namespace qoed::apps
