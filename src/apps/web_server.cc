#include "apps/web_server.h"

#include <utility>

namespace qoed::apps {

WebServer::WebServer(net::Network& network, net::IpAddr ip,
                     WebServerConfig cfg)
    : network_(network), cfg_(std::move(cfg)) {
  host_ = std::make_unique<net::Host>(network, ip, "web-server");
  network.register_hostname(cfg_.hostname, ip);
  host_->tcp().listen(cfg_.port, [this](std::shared_ptr<net::TcpSocket> s) {
    on_accept(std::move(s));
  });
}

void WebServer::add_page(PageSpec page) { pages_[page.path] = std::move(page); }

const PageSpec* WebServer::find_page(const std::string& path) const {
  auto it = pages_.find(path);
  return it == pages_.end() ? nullptr : &it->second;
}

void WebServer::on_accept(std::shared_ptr<net::TcpSocket> sock) {
  sockets_.push_back(sock);
  auto* raw = sock.get();
  raw->set_on_message([this, raw](const net::AppMessage& m) {
    handle(raw->shared_from_this(), m);
  });
  raw->set_on_closed([this, raw] {
    std::erase_if(sockets_, [raw](const auto& s) { return s.get() == raw; });
  });
}

void WebServer::handle(const std::shared_ptr<net::TcpSocket>& sock,
                       const net::AppMessage& m) {
  if (m.type != "HTTP_GET") return;
  ++requests_;
  const std::string path = m.header("path");
  const std::string object = m.header("object");

  network_.loop().schedule_after(cfg_.request_processing, [this, sock, path,
                                                           object] {
    const PageSpec* page = find_page(path);
    if (page == nullptr) {
      net::AppMessage resp{.type = "HTTP_404", .size = 600};
      resp.headers["path"] = path;
      sock->send(std::move(resp));
      return;
    }
    net::AppMessage resp{.type = "HTTP_RESPONSE"};
    resp.headers["path"] = path;
    if (object.empty()) {
      resp.size = page->html_bytes;
      resp.headers["objects"] = std::to_string(page->object_count);
    } else {
      resp.size = page->object_bytes;
      resp.headers["object"] = object;
    }
    sock->send(std::move(resp));
  });
}

std::vector<PageSpec> make_page_dataset(sim::Rng& rng, std::size_t count) {
  std::vector<PageSpec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PageSpec p;
    p.path = "/page" + std::to_string(i);
    p.html_bytes = static_cast<std::uint64_t>(rng.uniform(28'000, 95'000));
    p.object_count = static_cast<std::uint32_t>(rng.uniform_int(4, 28));
    p.object_bytes = static_cast<std::uint64_t>(rng.uniform(8'000, 45'000));
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace qoed::apps
