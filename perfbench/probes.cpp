// Layer probes: the benchmark times one public pdm/util function at a time
// on fixed buffers, so a change to a layer shows in its own MB/s before it
// shows (diluted) in a workload's end-to-end numbers.
#include <span>
#include <stdexcept>
#include <vector>

#include "pdm/checksum.h"
#include "pdm/disk_array.h"
#include "perfbench.h"
#include "util/archive.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kDisks = 4;
constexpr std::size_t kBlock = 8192;
constexpr std::size_t kOps = 1024;  // 32 MiB per pass
constexpr int kReps = 9;

double mb_per_s(double bytes, double seconds) { return bytes / seconds / 1e6; }

template <typename Fn>
double median_time(Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    t.push_back(ns_to_s(now_ns() - t0));
  }
  return median(t);
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  emcgm::Rng rng(seed);
  std::vector<std::byte> b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next());
  return b;
}

/// Full-stripe parallel writes then reads of a 32 MiB region of a memory
/// backend; the region is materialized before timing, so the probes time
/// transfers, not backend growth.
void disk_array_probes(std::map<std::string, double>& out) {
  const emcgm::pdm::DiskGeometry geom{kDisks, kBlock};
  const auto data = random_bytes(kOps * kDisks * kBlock, 7);
  std::vector<std::byte> back(data.size());
  std::vector<emcgm::pdm::WriteSlot> ws(kDisks);
  std::vector<emcgm::pdm::ReadSlot> rs(kDisks);
  auto slot_span = [&](auto& buf, std::size_t op, std::uint32_t d) {
    return std::span(buf.data() + (op * kDisks + d) * kBlock, kBlock);
  };
  auto write_all = [&](emcgm::pdm::DiskArray& da, bool async) {
    for (std::size_t op = 0; op < kOps; ++op) {
      for (std::uint32_t d = 0; d < kDisks; ++d) {
        ws[d] = {{d, op}, slot_span(data, op, d)};
      }
      if (async) {
        da.parallel_write_async(ws);
      } else {
        da.parallel_write(ws);
      }
    }
    da.drain();
  };
  const double bytes = static_cast<double>(data.size());

  auto serial = emcgm::pdm::make_disk_array(emcgm::pdm::BackendKind::kMemory,
                                            geom, "");
  write_all(*serial, false);
  out["pdm.write_mbps"] =
      mb_per_s(bytes, median_time([&] { write_all(*serial, false); }));
  out["pdm.read_mbps"] = mb_per_s(bytes, median_time([&] {
    for (std::size_t op = 0; op < kOps; ++op) {
      for (std::uint32_t d = 0; d < kDisks; ++d) {
        rs[d] = {{d, op}, slot_span(back, op, d)};
      }
      serial->parallel_read(rs);
    }
  }));
  if (back != data) throw std::runtime_error("pdm probe: read-back mismatch");

  emcgm::pdm::DiskArrayOptions opts;
  opts.io_threads = 4;
  auto async = emcgm::pdm::make_disk_array(emcgm::pdm::BackendKind::kMemory,
                                           geom, "", opts);
  write_all(*async, true);
  out["pdm.async_write_mbps"] =
      mb_per_s(bytes, median_time([&] { write_all(*async, true); }));
}

void crc_probe(std::map<std::string, double>& out) {
  const auto data = random_bytes(8u << 20, 11);
  const std::uint32_t want = emcgm::pdm::crc32c(data);
  bool same = true;
  const double t =
      median_time([&] { same = same && emcgm::pdm::crc32c(data) == want; });
  if (!same) throw std::runtime_error("crc32c probe: unstable checksum");
  out["pdm.crc32c_mbps"] = mb_per_s(static_cast<double>(data.size()), t);
}

/// put_vec then get_vec of an 8 MiB vector: the serde every context and
/// message crosses on its way to and from the disks.
void archive_probe(std::map<std::string, double>& out) {
  std::vector<std::uint64_t> items(1u << 20);
  emcgm::Rng rng(13);
  for (auto& x : items) x = rng.next();
  std::vector<std::uint64_t> back;
  const double t = median_time([&] {
    emcgm::WriteArchive w;
    w.put_vec(items);
    const auto buf = w.take();
    emcgm::ReadArchive r(buf);
    back = r.get_vec<std::uint64_t>();
  });
  if (back != items) throw std::runtime_error("archive probe: round-trip mismatch");
  out["util.archive_mbps"] =
      mb_per_s(static_cast<double>(items.size() * sizeof(std::uint64_t)), t);
}

}  // namespace

void run_layer_probes(std::map<std::string, double>& out) {
  disk_array_probes(out);
  crc_probe(out);
  archive_probe(out);
}

}  // namespace perfbench
