// Framed packets of the simulated network (Algorithm 3's p > 1
// communication round made fallible).
//
// Every wire transmission is a fixed 32-byte header followed by the payload.
// The header carries a magic, the packet type, the (src, dst) real-processor
// pair, a 64-bit sequence field, and a CRC32C over the whole frame (header
// with the CRC field zeroed, then payload) — reusing pdm/checksum's CRC so a
// corrupted frame is detected the same way a rotted disk block is. parse()
// returns nullopt instead of throwing: on a network, a bad frame is an
// expected event the reliable protocol absorbs (drop + retransmit), not a
// storage-integrity alarm.
//
// Verification reads the frame in place: the CRC chains over header bytes
// [0, 28), four zero bytes standing in for the CRC field, then the payload,
// which is the same value the sender sealed without copying the frame.
// parse_packet_view() stops there and lends out the payload; parse_packet()
// copies it into an owning Packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace emcgm::net {

enum class PacketType : std::uint32_t {
  kData = 1,       ///< one CGM message; seq = per-(src,dst) sequence number
  kAck = 2,        ///< cumulative ack; seq = highest in-order seq received
  kHeartbeat = 3,  ///< liveness beacon; seq = physical superstep index
  kRejoinReq = 4,  ///< rebooted node asks back in; seq = superstep index
  kRejoinAck = 5,  ///< survivor's answer; payload = epoch + committed seq
};

inline constexpr std::uint32_t kPacketMagic = 0x454D504B;  // "EMPK"

/// magic(4) | type(4) | src(4) | dst(4) | seq(8) | length(4) | crc(4)
inline constexpr std::size_t kPacketHeaderBytes = 32;

struct Packet {
  PacketType type = PacketType::kData;
  std::uint32_t src = 0;  ///< sending real processor
  std::uint32_t dst = 0;  ///< receiving real processor
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
};

/// A packet whose payload is borrowed: the span points into a buffer the
/// caller keeps alive (a frame being parsed, or a stream being framed).
struct PacketView {
  PacketType type = PacketType::kData;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  std::span<const std::byte> payload;
};

/// Serialize a packet into its wire frame (header + payload, CRC sealed).
std::vector<std::byte> frame_packet(const PacketView& p);
std::vector<std::byte> frame_packet(const Packet& p);

/// Parse and verify a wire frame. Returns nullopt on a truncated frame, bad
/// magic, unknown type, length mismatch, or CRC failure — i.e. whenever the
/// bytes cannot be trusted, whatever the cause. The view's payload aliases
/// `frame`; parse_packet() is the same check plus a copy of the payload.
std::optional<PacketView> parse_packet_view(std::span<const std::byte> frame);
std::optional<Packet> parse_packet(std::span<const std::byte> frame);

}  // namespace emcgm::net
