// Simulated IP packet.
//
// Packets carry sizes and protocol metadata but no stored payload buffer:
// byte i of packet p is the deterministic hash payload_byte(p.uid, i). The
// radio logger can therefore record the first two payload bytes of every RLC
// PDU — exactly what the real QxDM tool exposes — and the long-jump mapper
// can match those prefixes against "full" IP packets, all at zero memory
// cost even for multi-hour traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/addr.h"
#include "sim/time.h"

namespace qoed::net {

enum class Protocol : std::uint8_t { kTcp, kUdp };

// TCP header flags (subset the simulation uses).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool psh = false;
  bool rst = false;

  std::string to_string() const;
  // Appends the set flags as letters in SFRPA order, "." when none is set.
  void append_to(std::string& out) const;
};

struct DnsMessage;  // defined in net/dns.h

// Combined IP+TCP (or IP+UDP) header size we account for on the wire. A
// single constant keeps byte-count metrics simple and matches how the paper
// reports "mobile data consumption" from tcpdump traces.
inline constexpr std::uint32_t kHeaderBytes = 40;

// Deterministic wire content: byte `i` of the packet with id `uid`. Both the
// live Packet and the captured PacketRecord expose it, so the radio layer
// can segment "real" bytes and the offline mapper can match against them.
std::uint8_t wire_byte(std::uint64_t uid, std::uint32_t i);

struct Packet {
  std::uint64_t uid = 0;  // globally unique, assigned by PacketFactory

  IpAddr src_ip;
  Port src_port = 0;
  IpAddr dst_ip;
  Port dst_port = 0;
  Protocol protocol = Protocol::kTcp;

  // TCP fields. Sequence numbers are absolute stream offsets in bytes; we
  // use 64 bits so the simulation never has to model wraparound.
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint64_t window = 0;
  TcpFlags flags;

  std::uint32_t payload_size = 0;

  // DNS content for UDP port-53 packets (immutable, shared between the trace
  // record and the in-flight packet).
  std::shared_ptr<const DnsMessage> dns;

  // Simulation-only metadata: weak reference to the TCP endpoint that sent
  // this packet. Used exclusively for the out-of-band message-framing
  // side-channel (see net/tcp.h); never consulted by links, gates or
  // analyzers, so it carries no hidden timing information.
  std::weak_ptr<void> sender_ctx;

  std::uint32_t total_size() const { return payload_size + kHeaderBytes; }
  FlowKey flow() const { return {src_ip, src_port, dst_ip, dst_port}; }

  // Deterministic content of the wire representation (header + payload);
  // `i` must be < total_size(). The radio layer segments this byte stream.
  std::uint8_t wire_byte(std::uint32_t i) const;
};

// Allocates unique packet ids. One factory per simulation.
class PacketFactory {
 public:
  Packet make() {
    Packet p;
    p.uid = next_uid_++;
    return p;
  }
  std::uint64_t allocated() const { return next_uid_ - 1; }

 private:
  std::uint64_t next_uid_ = 1;
};

}  // namespace qoed::net
