// Checksummed block envelope for the PDM storage layer.
//
// When checksums are enabled, every physical block stored by a backend is an
// *envelope*: a fixed 24-byte header followed by the logical payload. The
// header carries a magic, a CRC32C over (disk || track || payload), and the
// block's own address tag. DiskArray verifies the envelope on every read, so
// three distinct failure modes all surface as typed emcgm::IoError
// (IoErrorKind::kCorruption) instead of silent wrong answers:
//
//   * bit rot        — payload bytes changed at rest (CRC mismatch),
//   * torn writes    — only a prefix of the block reached the media
//                      (CRC mismatch),
//   * misdirection   — a valid block landed on / was fetched from the wrong
//                      (disk, track) (address-tag mismatch).
//
// An all-zero physical block is a sparse, never-written track and unseals to
// an all-zero payload — preserving the backends' sparse-read contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "pdm/geometry.h"

namespace emcgm::pdm {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected). `seed` chains
/// incremental computations: crc32c(b, crc32c(a)) == crc32c(a || b).
/// On x86-64 CPUs with SSE4.2 this runs the `crc32` instruction 8 bytes at a
/// time; elsewhere it falls back to crc32c_table(). The path is picked once
/// per process from the CPU's feature bits, and both compute the same value,
/// so envelopes, packet frames and commit records do not depend on the host.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// The portable slice-by-one table loop: the fallback of crc32c() and the
/// oracle its hardware path is tested against.
std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t seed = 0);

/// True iff crc32c() runs on the SSE4.2 `crc32` instruction in this process.
bool crc32c_hardware();

/// Envelope header: magic(4) | crc(4) | disk(4) | reserved(4) | track(8).
inline constexpr std::size_t kEnvelopeBytes = 24;
inline constexpr std::uint32_t kBlockMagic = 0x454D4342;  // "EMCB"

/// Geometry the *backend* must be built with so that DiskArray can expose
/// `logical` to the layers above: each physical track gains header room.
inline DiskGeometry physical_geometry(const DiskGeometry& logical,
                                      bool checksums) {
  if (!checksums) return logical;
  DiskGeometry phys = logical;
  phys.block_bytes += kEnvelopeBytes;
  return phys;
}

/// Seal `payload` for storage at (disk, track). `phys` must be exactly
/// payload.size() + kEnvelopeBytes long.
void seal_block(std::uint32_t disk, std::uint64_t track,
                std::span<const std::byte> payload, std::span<std::byte> phys);

/// Verify `phys` (read from (disk, track)) and extract its payload into
/// `out` (exactly phys.size() - kEnvelopeBytes long). An all-zero physical
/// block is sparse: `out` is zero-filled. Throws IoError
/// (IoErrorKind::kCorruption) on a CRC or address-tag mismatch.
void unseal_block(std::uint32_t disk, std::uint64_t track,
                  std::span<const std::byte> phys, std::span<std::byte> out);

}  // namespace emcgm::pdm
