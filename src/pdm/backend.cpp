#include "pdm/backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace emcgm::pdm {

void StorageBackend::ensure_space(std::uint32_t disk,
                                  std::uint64_t track) const {
  if (quota_ == 0) return;
  const std::uint64_t need = (track + 1) * geom_.block_bytes;
  if (need <= quota_) return;
  if (track < tracks_used(disk)) return;  // overwrite, no growth
  std::ostringstream os;
  os << "disk " << disk << " full: materializing track " << track
     << " needs " << need << " bytes, quota is " << quota_;
  throw IoError(IoErrorKind::kNoSpace, os.str());
}

// ---------------------------------------------------------------- Memory --

MemoryBackend::MemoryBackend(const DiskGeometry& geom)
    : StorageBackend(geom), disks_(geom.num_disks) {}

void MemoryBackend::read_block(std::uint32_t disk, std::uint64_t track,
                               std::span<std::byte> out) {
  EMCGM_CHECK(disk < geom_.num_disks);
  EMCGM_CHECK(out.size() == geom_.block_bytes);
  const auto& chunks = disks_[disk].chunks;
  const std::uint64_t c = track / kChunkTracks;
  if (c < chunks.size() && chunks[c]) {
    const std::size_t off = (track % kChunkTracks) * geom_.block_bytes;
    std::memcpy(out.data(), chunks[c].get() + off, geom_.block_bytes);
  } else {
    // Sparse read: unwritten tracks are all-zero.
    std::memset(out.data(), 0, out.size());
  }
}

void MemoryBackend::write_block(std::uint32_t disk, std::uint64_t track,
                                std::span<const std::byte> data) {
  EMCGM_CHECK(disk < geom_.num_disks);
  EMCGM_CHECK(data.size() == geom_.block_bytes);
  ensure_space(disk, track);
  auto& d = disks_[disk];
  const std::uint64_t c = track / kChunkTracks;
  if (c >= d.chunks.size()) d.chunks.resize(c + 1);
  auto& chunk = d.chunks[c];
  if (!chunk) chunk.reset(new std::byte[kChunkTracks * geom_.block_bytes]());
  const std::size_t off = (track % kChunkTracks) * geom_.block_bytes;
  std::memcpy(chunk.get() + off, data.data(), geom_.block_bytes);
  d.tracks = std::max(d.tracks, track + 1);
}

std::uint64_t MemoryBackend::tracks_used(std::uint32_t disk) const {
  EMCGM_CHECK(disk < geom_.num_disks);
  return disks_[disk].tracks;
}

// ------------------------------------------------------------------ File --

namespace {

[[noreturn]] void raise_system(const char* what, const std::string& detail) {
  throw IoError(IoErrorKind::kSystem,
                std::string(what) + " " + detail + ": " +
                    std::strerror(errno));
}

// pread the full range, looping on EINTR and short reads. A short read at
// EOF ends the loop; the caller zero-fills the tail (sparse track).
std::size_t pread_full(int fd, std::byte* buf, std::size_t n, off_t off) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      raise_system("pread at offset", std::to_string(off));
    }
    if (r == 0) break;  // EOF
    done += static_cast<std::size_t>(r);
  }
  return done;
}

// pwrite the full range, looping on EINTR and short writes.
void pwrite_full(int fd, const std::byte* buf, std::size_t n, off_t off) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pwrite(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      raise_system("pwrite at offset", std::to_string(off));
    }
    EMCGM_CHECK_MSG(r > 0, "pwrite returned 0 before completing the block");
    done += static_cast<std::size_t>(r);
  }
}

}  // namespace

FileBackend::FileBackend(const DiskGeometry& geom, std::string directory)
    : StorageBackend(geom), dir_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw IoError(IoErrorKind::kSystem,
                  "create_directories " + dir_ + ": " + ec.message());
  }
  fds_.reserve(geom.num_disks);
  paths_.reserve(geom.num_disks);
  for (std::uint32_t d = 0; d < geom.num_disks; ++d) {
    std::string path = dir_ + "/disk" + std::to_string(d) + ".bin";
    int flags = O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC;
    int fd = -1;
#ifdef O_NOATIME
    // Skip access-time bookkeeping: every block read would otherwise dirty
    // the inode, which is pure overhead for a simulated disk. The flag is
    // owner-only, so fall back without it on EPERM (e.g. files we do not
    // own, or certain shared mounts).
    fd = ::open(path.c_str(), flags | O_NOATIME, 0644);
    if (fd < 0 && errno != EPERM) raise_system("open", path);
#endif
    if (fd < 0) {
      fd = ::open(path.c_str(), flags, 0644);
      if (fd < 0) raise_system("open", path);
    }
#ifdef POSIX_FADV_RANDOM
    // The PDM access pattern is track-addressed, not sequential: disable
    // kernel readahead so per-disk latencies reflect the requested blocks.
    (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_RANDOM);
#endif
    fds_.push_back(fd);
    paths_.push_back(std::move(path));
  }
  // Make the just-created directory entries durable up front: a disk file
  // that exists in the page cache but not on the platter is useless to a
  // recovery that follows a host crash.
  dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) raise_system("open directory", dir_);
  if (::fsync(dir_fd_) != 0) raise_system("fsync directory", dir_);
}

FileBackend::~FileBackend() {
  if (dir_fd_ >= 0 && ::close(dir_fd_) != 0) {
    std::fprintf(stderr, "emcgm: close(%s) failed: %s\n", dir_.c_str(),
                 std::strerror(errno));
  }
  for (std::size_t d = 0; d < fds_.size(); ++d) {
    // Destructors cannot throw; report clean-up failures instead of
    // swallowing them.
    if (::close(fds_[d]) != 0) {
      std::fprintf(stderr, "emcgm: close(%s) failed: %s\n", paths_[d].c_str(),
                   std::strerror(errno));
    }
    if (::unlink(paths_[d].c_str()) != 0) {
      std::fprintf(stderr, "emcgm: unlink(%s) failed: %s\n", paths_[d].c_str(),
                   std::strerror(errno));
    }
  }
}

void FileBackend::read_block(std::uint32_t disk, std::uint64_t track,
                             std::span<std::byte> out) {
  EMCGM_CHECK(disk < geom_.num_disks);
  EMCGM_CHECK(out.size() == geom_.block_bytes);
  const auto off = static_cast<off_t>(track * geom_.block_bytes);
  const std::size_t n = pread_full(fds_[disk], out.data(), out.size(), off);
  // Short read past EOF = sparse region: zero-fill the tail.
  if (n < out.size()) {
    std::memset(out.data() + n, 0, out.size() - n);
  }
}

void FileBackend::write_block(std::uint32_t disk, std::uint64_t track,
                              std::span<const std::byte> data) {
  EMCGM_CHECK(disk < geom_.num_disks);
  EMCGM_CHECK(data.size() == geom_.block_bytes);
  ensure_space(disk, track);
  const auto off = static_cast<off_t>(track * geom_.block_bytes);
  pwrite_full(fds_[disk], data.data(), data.size(), off);
}

void FileBackend::sync() {
  for (std::size_t d = 0; d < fds_.size(); ++d) {
    if (::fsync(fds_[d]) != 0) raise_system("fsync", paths_[d]);
  }
  // The directory too: a first write to a sparse region can extend the file,
  // and the rename-free commit protocol relies on the entries being stable.
  if (::fsync(dir_fd_) != 0) raise_system("fsync directory", dir_);
}

std::uint64_t FileBackend::tracks_used(std::uint32_t disk) const {
  EMCGM_CHECK(disk < geom_.num_disks);
  struct stat st{};
  EMCGM_CHECK(::fstat(fds_[disk], &st) == 0);
  return static_cast<std::uint64_t>(st.st_size) / geom_.block_bytes;
}

std::unique_ptr<StorageBackend> make_backend(BackendKind kind,
                                             const DiskGeometry& geom,
                                             const std::string& file_dir) {
  switch (kind) {
    case BackendKind::kMemory:
      return std::make_unique<MemoryBackend>(geom);
    case BackendKind::kFile:
      EMCGM_CHECK_MSG(!file_dir.empty(),
                      "FileBackend requires a directory path");
      return std::make_unique<FileBackend>(geom, file_dir);
  }
  EMCGM_CHECK_MSG(false, "unknown backend kind");
  return nullptr;  // unreachable
}

}  // namespace emcgm::pdm
