#include "net/packet.h"

#include <charconv>
#include <iterator>

namespace qoed::net {

std::string IpAddr::to_string() const {
  std::string s;
  append_to(s);
  return s;
}

void IpAddr::append_to(std::string& out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    char octet[3];
    out.append(octet,
               std::to_chars(octet, std::end(octet), (v_ >> shift) & 0xff).ptr);
    if (shift > 0) out += '.';
  }
}

FlowKey FlowKey::canonical() const {
  FlowKey rev = reversed();
  return *this < rev ? *this : rev;
}

std::string FlowKey::to_string() const {
  return src_ip.to_string() + ":" + std::to_string(src_port) + "->" +
         dst_ip.to_string() + ":" + std::to_string(dst_port);
}

std::string TcpFlags::to_string() const {
  std::string s;
  append_to(s);
  return s;
}

void TcpFlags::append_to(std::string& out) const {
  const std::size_t start = out.size();
  if (syn) out += 'S';
  if (fin) out += 'F';
  if (rst) out += 'R';
  if (psh) out += 'P';
  if (ack) out += 'A';
  if (out.size() == start) out += '.';
}

std::uint8_t wire_byte(std::uint64_t uid, std::uint32_t i) {
  // splitmix64-style mix of (uid, i). Stable across runs and platforms.
  std::uint64_t x = uid * 0x9e3779b97f4a7c15ULL + i;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::uint8_t>(x & 0xff);
}

std::uint8_t Packet::wire_byte(std::uint32_t i) const {
  return net::wire_byte(uid, i);
}

}  // namespace qoed::net
