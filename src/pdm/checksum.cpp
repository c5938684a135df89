#include "pdm/checksum.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EMCGM_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace emcgm::pdm {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t poly = 0x82F63B78;  // 0x1EDC6F41 reflected
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc32c_table();

// Both update functions advance the raw (pre-inverted) CRC register `c`
// over `n` bytes; crc32c() does the inversions around them.
using CrcUpdateFn = std::uint32_t (*)(std::uint32_t c, const std::byte* p,
                                      std::size_t n);

std::uint32_t table_update(std::uint32_t c, const std::byte* p,
                           std::size_t n) {
  for (; n > 0; --n, ++p) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef EMCGM_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes exactly this polynomial with the
// same bit order, so feeding it little-endian 8-byte words reproduces the
// table loop byte for byte. Compiled for SSE4.2 regardless of the build's
// -march; only called once the CPU says it has the instruction.
__attribute__((target("sse4.2"))) std::uint32_t sse42_update(
    std::uint32_t c, const std::byte* p, std::size_t n) {
  // Byte steps up to an 8-byte boundary keep the word loads aligned.
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0; --n, ++p) {
    c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*p));
  }
  std::uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<std::uint32_t>(c64);
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*p));
  return c;
}
#endif

CrcUpdateFn pick_crc_update() {
#ifdef EMCGM_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return sse42_update;
#endif
  return table_update;
}

/// The dispatched update, selected on first use (a function-local static,
/// so a caller in another translation unit's static initializer is safe).
CrcUpdateFn crc_update() {
  static const CrcUpdateFn fn = pick_crc_update();
  return fn;
}

// Header field offsets within the 24-byte envelope.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffCrc = 4;
constexpr std::size_t kOffDisk = 8;
constexpr std::size_t kOffTrack = 16;  // 12..16 reserved (zero)

template <typename T>
void store_le(std::span<std::byte> buf, std::size_t off, T v) {
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T load_le(std::span<const std::byte> buf, std::size_t off) {
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  return v;
}

/// CRC over the address tag then the payload, so a block copied verbatim to
/// another (disk, track) fails verification even though its bytes are intact.
std::uint32_t tagged_crc(std::uint32_t disk, std::uint64_t track,
                         std::span<const std::byte> payload) {
  std::array<std::byte, 12> tag{};
  store_le(tag, 0, disk);
  store_le(tag, 4, track);
  return crc32c(payload, crc32c(tag));
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return ~crc_update()(~seed, data.data(), data.size());
}

std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t seed) {
  return ~table_update(~seed, data.data(), data.size());
}

bool crc32c_hardware() { return crc_update() != table_update; }

void seal_block(std::uint32_t disk, std::uint64_t track,
                std::span<const std::byte> payload,
                std::span<std::byte> phys) {
  EMCGM_CHECK(phys.size() == payload.size() + kEnvelopeBytes);
  std::memset(phys.data(), 0, kEnvelopeBytes);
  store_le(phys, kOffMagic, kBlockMagic);
  store_le(phys, kOffCrc, tagged_crc(disk, track, payload));
  store_le(phys, kOffDisk, disk);
  store_le(phys, kOffTrack, track);
  std::memcpy(phys.data() + kEnvelopeBytes, payload.data(), payload.size());
}

void unseal_block(std::uint32_t disk, std::uint64_t track,
                  std::span<const std::byte> phys, std::span<std::byte> out) {
  EMCGM_CHECK(phys.size() == out.size() + kEnvelopeBytes);
  const auto magic = load_le<std::uint32_t>(phys, kOffMagic);
  if (magic != kBlockMagic) {
    // Sparse track: the backends return all-zero bytes for never-written
    // tracks, which cannot carry a valid magic.
    const bool all_zero = std::all_of(phys.begin(), phys.end(), [](std::byte b) {
      return b == std::byte{0};
    });
    if (all_zero) {
      std::memset(out.data(), 0, out.size());
      return;
    }
    std::ostringstream os;
    os << "bad block magic 0x" << std::hex << magic << std::dec << " at disk "
       << disk << " track " << track;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  const auto tag_disk = load_le<std::uint32_t>(phys, kOffDisk);
  const auto reserved = load_le<std::uint32_t>(phys, kOffDisk + 4);
  const auto tag_track = load_le<std::uint64_t>(phys, kOffTrack);
  if (reserved != 0) {
    // Sealed as zero; anything else is header rot the CRC does not cover.
    std::ostringstream os;
    os << "corrupt envelope (reserved bytes) at disk " << disk << " track "
       << track;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  if (tag_disk != disk || tag_track != track) {
    std::ostringstream os;
    os << "misdirected block: expected disk " << disk << " track " << track
       << ", envelope says disk " << tag_disk << " track " << tag_track;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  const auto payload = phys.subspan(kEnvelopeBytes);
  const auto want = load_le<std::uint32_t>(phys, kOffCrc);
  const auto got = tagged_crc(disk, track, payload);
  if (want != got) {
    std::ostringstream os;
    os << "checksum mismatch at disk " << disk << " track " << track
       << ": stored 0x" << std::hex << want << ", computed 0x" << got;
    throw IoError(IoErrorKind::kCorruption, os.str());
  }
  std::memcpy(out.data(), payload.data(), out.size());
}

}  // namespace emcgm::pdm
