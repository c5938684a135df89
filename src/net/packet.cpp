#include "net/packet.h"

#include <cstring>

#include "pdm/checksum.h"

namespace emcgm::net {

namespace {

void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

std::vector<std::byte> frame_packet(const PacketView& p) {
  std::vector<std::byte> f(kPacketHeaderBytes + p.payload.size());
  put_u32(f.data() + 0, kPacketMagic);
  put_u32(f.data() + 4, static_cast<std::uint32_t>(p.type));
  put_u32(f.data() + 8, p.src);
  put_u32(f.data() + 12, p.dst);
  put_u64(f.data() + 16, p.seq);
  put_u32(f.data() + 24, static_cast<std::uint32_t>(p.payload.size()));
  put_u32(f.data() + 28, 0);  // CRC field participates in the CRC as zero
  if (!p.payload.empty()) {
    std::memcpy(f.data() + kPacketHeaderBytes, p.payload.data(),
                p.payload.size());
  }
  put_u32(f.data() + 28, pdm::crc32c(f));
  return f;
}

std::vector<std::byte> frame_packet(const Packet& p) {
  return frame_packet(PacketView{p.type, p.src, p.dst, p.seq, p.payload});
}

std::optional<PacketView> parse_packet_view(std::span<const std::byte> frame) {
  if (frame.size() < kPacketHeaderBytes) return std::nullopt;
  if (get_u32(frame.data() + 0) != kPacketMagic) return std::nullopt;
  const std::uint32_t type = get_u32(frame.data() + 4);
  if (type < 1 || type > 5) return std::nullopt;
  const std::uint32_t length = get_u32(frame.data() + 24);
  if (frame.size() != kPacketHeaderBytes + length) return std::nullopt;

  // The sealed CRC covered the frame with its CRC field zeroed: chain over
  // the bytes before the field, four zeros in its place, then the payload.
  constexpr std::size_t kCrcOff = 28;
  constexpr std::byte kZeroField[4] = {};
  std::uint32_t crc = pdm::crc32c(frame.first(kCrcOff));
  crc = pdm::crc32c(kZeroField, crc);
  crc = pdm::crc32c(frame.subspan(kPacketHeaderBytes), crc);
  if (crc != get_u32(frame.data() + kCrcOff)) return std::nullopt;

  PacketView p;
  p.type = static_cast<PacketType>(type);
  p.src = get_u32(frame.data() + 8);
  p.dst = get_u32(frame.data() + 12);
  p.seq = get_u64(frame.data() + 16);
  p.payload = frame.subspan(kPacketHeaderBytes);
  return p;
}

std::optional<Packet> parse_packet(std::span<const std::byte> frame) {
  const std::optional<PacketView> v = parse_packet_view(frame);
  if (!v) return std::nullopt;
  Packet p;
  p.type = v->type;
  p.src = v->src;
  p.dst = v->dst;
  p.seq = v->seq;
  p.payload.assign(v->payload.begin(), v->payload.end());
  return p;
}

}  // namespace emcgm::net
