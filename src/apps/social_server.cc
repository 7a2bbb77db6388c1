#include "apps/social_server.h"

#include <algorithm>
#include <utility>

namespace qoed::apps {

SocialServer::SocialServer(net::Network& network, net::IpAddr ip,
                           SocialServerConfig cfg)
    : network_(network), cfg_(std::move(cfg)) {
  host_ = std::make_unique<net::Host>(network, ip, "social-server");
  network.register_hostname(cfg_.hostname, ip);
  host_->tcp().listen(cfg_.api_port,
                      [this](std::shared_ptr<net::TcpSocket> sock) {
                        on_api_accept(std::move(sock));
                      });
  host_->tcp().listen(cfg_.push_port,
                      [this](std::shared_ptr<net::TcpSocket> sock) {
                        on_push_accept(std::move(sock));
                      });
}

sim::Duration SocialServer::jittered(sim::Duration nominal) {
  if (cfg_.processing_jitter <= 0) return nominal;
  const double f =
      jitter_rng_.uniform(1 - cfg_.processing_jitter,
                          1 + cfg_.processing_jitter);
  return sim::sec_f(sim::to_seconds(nominal) * f);
}

void SocialServer::make_friends(const std::string& a, const std::string& b) {
  account(a).friends.insert(b);
  account(b).friends.insert(a);
}

const std::vector<SocialPost>& SocialServer::feed_of(
    const std::string& account_id) const {
  static const std::vector<SocialPost> kEmpty;
  auto it = accounts_.find(account_id);
  return it == accounts_.end() ? kEmpty : it->second.feed;
}

void SocialServer::on_api_accept(std::shared_ptr<net::TcpSocket> sock) {
  api_sockets_.push_back(sock);
  auto* raw = sock.get();
  raw->set_on_message([this, raw](const net::AppMessage& m) {
    handle_api_message(raw->shared_from_this(), m);
  });
  raw->set_on_closed([this, raw] {
    std::erase_if(api_sockets_,
                  [raw](const auto& s) { return s.get() == raw; });
  });
}

void SocialServer::on_push_accept(std::shared_ptr<net::TcpSocket> sock) {
  auto* raw = sock.get();
  raw->set_on_message([this, raw](const net::AppMessage& m) {
    if (m.type == "PUSH_REGISTER") {
      account(m.header("account")).push_socket = raw->shared_from_this();
    }
  });
  raw->set_on_closed([this, raw] {
    for (auto& [id, acct] : accounts_) {
      if (acct.push_socket.get() == raw) acct.push_socket.reset();
    }
  });
}

void SocialServer::handle_api_message(
    const std::shared_ptr<net::TcpSocket>& sock, const net::AppMessage& m) {
  if (m.type == "POST_UPLOAD") {
    handle_post(sock, m);
  } else if (m.type == "FEED_REQUEST") {
    handle_feed_request(sock, m);
  }
}

void SocialServer::handle_post(const std::shared_ptr<net::TcpSocket>& sock,
                               const net::AppMessage& m) {
  ++posts_;
  const std::string author = m.header("account");
  SocialPost post;
  post.index = next_post_index_++;
  post.author = author;
  post.kind = m.header("kind");
  post.text = m.header("text");

  const sim::Duration processing = jittered(post.kind == "photos"
                                                ? cfg_.photo_post_processing
                                                : cfg_.post_processing);
  network_.loop().schedule_after(processing, [this, sock, author, post] {
    // The post lands on the author's own feed and each friend's feed.
    account(author).feed.push_back(post);
    for (const std::string& friend_id : account(author).friends) {
      Account& f = account(friend_id);
      f.feed.push_back(post);
      if (f.push_socket && f.push_socket->established()) {
        ++pushes_;
        net::AppMessage push{.type = "PUSH_NOTIFY",
                             .size = cfg_.push_notify_bytes};
        push.headers["from"] = author;
        push.headers["index"] = std::to_string(post.index);
        f.push_socket->send(std::move(push));
      }
    }
    net::AppMessage ack{.type = "POST_ACK", .size = cfg_.post_ack_bytes};
    ack.headers["index"] = std::to_string(post.index);
    sock->send(std::move(ack));
  });
}

void SocialServer::handle_feed_request(
    const std::shared_ptr<net::TcpSocket>& sock, const net::AppMessage& m) {
  ++feed_requests_;
  const std::string who = m.header("account");
  const std::uint64_t since =
      m.header("since").empty() ? 0 : std::stoull(m.header("since"));
  const bool webview = m.header("design") == "webview";
  const bool recommendations = m.header("recommendations") == "1";
  const bool foreground = m.header("foreground") == "1";

  const sim::Duration processing = jittered(
      webview ? cfg_.webview_feed_processing : cfg_.feed_processing);
  network_.loop().schedule_after(processing, [this, sock, who, since,
                                              webview, recommendations,
                                              foreground] {
    const auto& feed = account(who).feed;
    std::vector<const SocialPost*> fresh;
    for (const auto& p : feed) {
      if (p.index > since) fresh.push_back(&p);
    }
    // A foreground pull with nothing new still redraws the latest item
    // (Facebook re-sends the head of the feed).
    std::size_t item_count = fresh.size();
    if (foreground && item_count == 0 && !feed.empty()) item_count = 1;

    const std::uint64_t base =
        webview ? cfg_.feed_base_webview : cfg_.feed_base_listview;
    const std::uint64_t per_item =
        webview ? cfg_.feed_item_webview : cfg_.feed_item_listview;
    net::AppMessage resp{.type = "FEED_RESPONSE",
                         .size = base + per_item * item_count +
                                 (recommendations ? cfg_.recommendations_bytes
                                                  : 0)};
    resp.headers["count"] = std::to_string(fresh.size());
    resp.headers["latest"] =
        std::to_string(feed.empty() ? since : feed.back().index);
    // Ship the fresh item texts so the client can render them (and QoE
    // Doctor can match its timestamp strings).
    std::string texts;
    for (const auto* p : fresh) {
      if (!texts.empty()) texts += '\x1f';
      texts += p->kind + '\x1e' + p->text;
    }
    resp.headers["items"] = texts;
    sock->send(std::move(resp));
  });
}

}  // namespace qoed::apps
