// Addressing primitives shared by the whole network substrate.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace qoed::net {

// IPv4-style address, stored host-order. Value type, cheap to copy.
class IpAddr {
 public:
  constexpr IpAddr() = default;
  constexpr explicit IpAddr(std::uint32_t v) : v_(v) {}
  constexpr IpAddr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                   std::uint8_t d)
      : v_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
           (std::uint32_t{c} << 8) | d) {}

  constexpr std::uint32_t value() const { return v_; }
  constexpr bool is_unspecified() const { return v_ == 0; }

  std::string to_string() const;
  // Appends the dotted quad ("10.0.0.2") to `out`.
  void append_to(std::string& out) const;

  friend constexpr auto operator<=>(IpAddr, IpAddr) = default;

 private:
  std::uint32_t v_ = 0;
};

using Port = std::uint16_t;

// Direction relative to the mobile device (the paper's vantage point).
enum class Direction : std::uint8_t { kUplink, kDownlink };

constexpr const char* to_string(Direction d) {
  return d == Direction::kUplink ? "uplink" : "downlink";
}
constexpr Direction reverse(Direction d) {
  return d == Direction::kUplink ? Direction::kDownlink : Direction::kUplink;
}

// TCP/UDP flow identifier as seen from the sender of a packet.
struct FlowKey {
  IpAddr src_ip;
  Port src_port = 0;
  IpAddr dst_ip;
  Port dst_port = 0;

  friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) = default;

  // Key with endpoints ordered canonically, so both directions of a
  // connection map to the same value (used by the flow analyzer).
  FlowKey canonical() const;
  FlowKey reversed() const { return {dst_ip, dst_port, src_ip, src_port}; }
  std::string to_string() const;
};

}  // namespace qoed::net

template <>
struct std::hash<qoed::net::IpAddr> {
  std::size_t operator()(qoed::net::IpAddr a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<qoed::net::FlowKey> {
  std::size_t operator()(const qoed::net::FlowKey& k) const noexcept {
    std::uint64_t h = (std::uint64_t{k.src_ip.value()} << 32) |
                      k.dst_ip.value();
    h ^= (std::uint64_t{k.src_port} << 16) ^ k.dst_port;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};
