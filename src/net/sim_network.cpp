#include "net/sim_network.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "util/archive.h"

namespace emcgm::net {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

std::string net_error_what(std::uint32_t src, std::uint32_t dst,
                           std::uint32_t attempts) {
  std::ostringstream os;
  os << "net error: link " << src << "->" << dst
     << " exhausted its retransmission budget (" << attempts
     << " attempts without an ack)";
  return os.str();
}

/// One in-flight frame of a pair-local simulation.
struct Event {
  std::uint64_t tick = 0;
  std::uint64_t order = 0;  ///< enqueue order, breaks same-tick ties
  SharedFrame frame;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.tick != b.tick ? a.tick > b.tick : a.order > b.order;
  }
};

using EventQueue = std::priority_queue<Event, std::vector<Event>, EventLater>;

}  // namespace

NetError::NetError(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t attempts)
    : Error(net_error_what(src, dst, attempts)), src_(src), dst_(dst) {}

SimNetwork::SimNetwork(std::uint32_t p, NetConfig cfg)
    : p_(p),
      cfg_(cfg),
      injector_(p, cfg.fault),
      machine_(p),
      dead_(p, 0),
      links_(static_cast<std::size_t>(p) * p),
      mail_(static_cast<std::size_t>(p) * p),
      sender_done_(p, 0),
      pair_out_(static_cast<std::size_t>(p) * p),
      pair_done_(static_cast<std::size_t>(p) * p, 0),
      last_seen_(p, 0) {
  EMCGM_CHECK(p >= 1);
  EMCGM_CHECK(cfg_.retry.max_attempts >= 1);
  for (std::uint32_t q = 0; q < p_; ++q) machine_[q] = q;
}

void SimNetwork::set_machine_map(std::vector<std::uint32_t> machines) {
  EMCGM_CHECK_MSG(!round_active(),
                  "set_machine_map during an open mailbox round");
  EMCGM_CHECK_MSG(machines.size() == p_,
                  "machine map must name all " << p_ << " processors");
  machine_ = std::move(machines);
}

SimNetwork::~SimNetwork() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  if (pump_.joinable()) pump_.join();
}

bool SimNetwork::round_active() const {
  std::lock_guard<std::mutex> lk(mu_);
  return round_active_;
}

void SimNetwork::mark_dead(std::uint32_t proc) {
  EMCGM_CHECK(proc < p_);
  EMCGM_CHECK_MSG(!round_active(), "mark_dead during an open mailbox round");
  if (dead_[proc]) return;
  dead_[proc] = 1;
  // Nothing further will be delivered to or acked by the dead processor;
  // abandon in-flight state on its links instead of retrying into the void.
  for (std::uint32_t q = 0; q < p_; ++q) {
    link(proc, q).window.clear();
    link(q, proc).window.clear();
  }
}

void SimNetwork::mark_alive(std::uint32_t proc) {
  EMCGM_CHECK(proc < p_);
  EMCGM_CHECK_MSG(!round_active(), "mark_alive during an open mailbox round");
  if (!dead_[proc]) return;
  dead_[proc] = 0;
  // The rejoined processor's protocol state restarts from scratch: both ends
  // of every link touching it rewind to sequence 1 with empty windows and
  // resequencing buffers — the peer kept nothing for it (mark_dead cleared
  // the windows) and a stale expect-cursor would discard its fresh frames.
  for (std::uint32_t q = 0; q < p_; ++q) {
    for (LinkState* l : {&link(proc, q), &link(q, proc)}) {
      l->window.clear();
      l->ooo.clear();
      l->next_seq = 1;
      l->expect = 1;
    }
  }
  // Renew the failure-detector lease as of the current step, otherwise the
  // next heartbeat round would count the whole dead spell as misses.
  if (hb_init_) last_seen_[proc] = static_cast<std::int64_t>(cur_step_);
}

std::vector<std::uint32_t> SimNetwork::rejoin_round(
    std::uint64_t step, std::uint64_t epoch, std::uint64_t committed_seq) {
  EMCGM_CHECK_MSG(!round_active(),
                  "rejoin_round during an open mailbox round");
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t q = 0; q < p_; ++q) {
    if (!dead_[q] || !injector_.rebooted(q)) continue;
    // The rebooted node broadcasts its request to everyone it remembers;
    // each live receiver acks with the current epoch and committed seq.
    // Both legs are heartbeat-class: only fail-stop can eat them, and a
    // rebooted node is by definition not fail-stopped, so a candidate is
    // acked iff any live processor exists — deterministically.
    std::uint32_t acks = 0;
    for (std::uint32_t h = 0; h < p_; ++h) {
      if (h == q) continue;
      Packet req;
      req.type = PacketType::kRejoinReq;
      req.src = q;
      req.dst = h;
      req.seq = step;
      ++stats_.rejoin_requests;
      stats_.wire_bytes += kPacketHeaderBytes;
      if (crossing(q, h)) stats_.crossing_wire_bytes += kPacketHeaderBytes;
      const LinkVerdict v = injector_.on_transmit(
          q, h, PacketType::kRejoinReq, kPacketHeaderBytes);
      if (v.drop || dead_[h]) {
        if (v.drop) ++stats_.dropped;
        continue;
      }
      Packet ack;
      ack.type = PacketType::kRejoinAck;
      ack.src = h;
      ack.dst = q;
      ack.seq = step;
      WriteArchive ar;
      ar.put<std::uint64_t>(epoch);
      ar.put<std::uint64_t>(committed_seq);
      ack.payload = ar.take();
      const std::size_t ack_bytes = kPacketHeaderBytes + ack.payload.size();
      ++stats_.rejoin_acks;
      stats_.wire_bytes += ack_bytes;
      if (crossing(h, q)) stats_.crossing_wire_bytes += ack_bytes;
      const LinkVerdict va =
          injector_.on_transmit(h, q, PacketType::kRejoinAck, ack_bytes);
      if (va.drop) {
        ++stats_.dropped;
        continue;
      }
      ++acks;
    }
    if (acks > 0) candidates.push_back(q);
  }
  return candidates;
}

void SimNetwork::send(std::uint32_t src, std::uint32_t dst,
                      std::vector<std::byte> payload) {
  EMCGM_CHECK(src < p_ && dst < p_ && src != dst);
  EMCGM_CHECK_MSG(!round_active(), "send during an open mailbox round");
  EMCGM_CHECK_MSG(!dead_[src] && !dead_[dst],
                  "send on a link with a dead endpoint: " << src << "->"
                                                          << dst);
  enqueue_data(src, dst, payload);
}

void SimNetwork::enqueue_data(std::uint32_t src, std::uint32_t dst,
                              std::span<const std::byte> payload) {
  LinkState& l = link(src, dst);
  const std::uint64_t seq = l.next_seq++;
  l.window.push_back(Unacked{
      seq,
      std::make_shared<const std::vector<std::byte>>(
          frame_packet(PacketView{PacketType::kData, src, dst, seq, payload})),
      0, 0});
}

std::uint64_t SimNetwork::rto(std::uint32_t attempts) const {
  // Never time out before a same-tick ack could possibly arrive: one base
  // latency each way plus slack, whatever the retry policy's base says.
  const std::uint64_t floor =
      2 * static_cast<std::uint64_t>(cfg_.fault.base_latency_ticks) + 2;
  return std::max(floor, cfg_.retry.backoff_us(attempts));
}

// ------------------------------------------------------ pair simulation ----

void SimNetwork::run_pair(std::uint32_t lo, std::uint32_t hi,
                          PairOutcome& out) {
  EMCGM_ASSERT(lo < hi && hi < p_);
  // Pair-local clock and wire. Only the four pieces of state a pair owns are
  // touched below: its two LinkStates, its two injector coin cursors, and
  // `out` — which is why pairs may run on any thread, in any order, with
  // identical results (see the header's pair-decomposition argument).
  EventQueue events;
  std::uint64_t tick = 0;
  std::uint64_t order_counter = 0;

  auto transmit = [&](const PacketView& pkt, const SharedFrame& frame) {
    switch (pkt.type) {
      case PacketType::kData:
        ++out.stats.data_sent;
        break;
      case PacketType::kAck:
        ++out.stats.acks_sent;
        break;
      case PacketType::kHeartbeat:
        ++out.stats.heartbeats_sent;
        break;
      case PacketType::kRejoinReq:
        ++out.stats.rejoin_requests;
        break;
      case PacketType::kRejoinAck:
        ++out.stats.rejoin_acks;
        break;
    }
    const std::size_t frame_bytes = frame->size();
    out.stats.wire_bytes += frame_bytes;
    if (crossing(pkt.src, pkt.dst)) {
      out.stats.crossing_wire_bytes += frame_bytes;
    }

    const LinkVerdict v =
        injector_.on_transmit(pkt.src, pkt.dst, pkt.type, frame_bytes);
    if (v.drop) {
      ++out.stats.dropped;
      return;
    }
    if (v.reordered) ++out.stats.reordered;
    if (v.delayed) ++out.stats.delayed;

    const std::uint64_t base = cfg_.fault.base_latency_ticks;
    SharedFrame sent = frame;
    if (v.corrupt) {
      // Only a corrupted transmission gets its own bytes; the window keeps
      // the clean frame for retransmission.
      ++out.stats.corrupted;
      auto bad = std::make_shared<std::vector<std::byte>>(*frame);
      (*bad)[v.corrupt_pos % bad->size()] ^= std::byte{0x40};
      sent = std::move(bad);
    }
    events.push(Event{tick + base + v.extra_delay, order_counter++,
                      std::move(sent)});
    if (v.duplicate) {
      ++out.stats.duplicated;
      events.push(
          Event{tick + base + v.dup_extra_delay, order_counter++, frame});
    }
  };

  auto handle_arrival = [&](const std::vector<std::byte>& frame) {
    const std::optional<PacketView> parsed = parse_packet_view(frame);
    if (!parsed) {
      // In-flight corruption: the CRC (or frame structure) check rejected
      // it. The sender's retransmission timer recovers.
      ++out.stats.corrupt_discarded;
      return;
    }
    const PacketView& pkt = *parsed;
    if (pkt.src >= p_ || pkt.dst >= p_) return;
    if (dead_[pkt.src] || dead_[pkt.dst]) return;
    // Heartbeat-class frames never travel through pair simulations (the
    // heartbeat and rejoin rounds are their own synchronous exchanges);
    // anything else here is ours.
    if (pkt.type == PacketType::kHeartbeat ||
        pkt.type == PacketType::kRejoinReq ||
        pkt.type == PacketType::kRejoinAck) {
      return;
    }

    if (pkt.type == PacketType::kAck) {
      // Cumulative ack for the data direction dst -> src of the ack frame.
      LinkState& l = link(pkt.dst, pkt.src);
      while (!l.window.empty() && l.window.front().attempts > 0 &&
             l.window.front().seq <= pkt.seq) {
        l.window.pop_front();
      }
      return;
    }

    LinkState& l = link(pkt.src, pkt.dst);
    std::vector<Delivery>& inbox = pkt.dst == lo ? out.to_lo : out.to_hi;
    if (pkt.seq < l.expect) {
      ++out.stats.duplicates_discarded;
    } else if (pkt.seq == l.expect) {
      ++out.stats.delivered_messages;
      out.stats.delivered_payload_bytes += pkt.payload.size();
      inbox.push_back(Delivery{
          pkt.src, std::vector<std::byte>(pkt.payload.begin(),
                                          pkt.payload.end())});
      ++l.expect;
      // Drain the resequencing buffer while it continues the in-order run.
      for (auto it = l.ooo.find(l.expect); it != l.ooo.end();
           it = l.ooo.find(l.expect)) {
        ++out.stats.delivered_messages;
        out.stats.delivered_payload_bytes += it->second.size();
        inbox.push_back(Delivery{pkt.src, std::move(it->second)});
        l.ooo.erase(it);
        ++l.expect;
      }
    } else {
      if (l.ooo.try_emplace(pkt.seq, pkt.payload.begin(), pkt.payload.end())
              .second) {
        ++out.stats.out_of_order_buffered;
      } else {
        ++out.stats.duplicates_discarded;
      }
    }

    // Cumulative ack (also on dup/out-of-order arrivals: a lost ack must not
    // leave the sender retransmitting forever).
    const PacketView ack{PacketType::kAck, pkt.dst, pkt.src, l.expect - 1, {}};
    transmit(ack, std::make_shared<const std::vector<std::byte>>(
                      frame_packet(ack)));
  };

  // The pair's two directed links, in canonical order — the same relative
  // order the old global event loop visited them in, so per-link coin
  // consumption is unchanged.
  const std::uint32_t ends[2][2] = {{lo, hi}, {hi, lo}};

  for (;;) {
    // Put queued-but-never-transmitted frames on the wire at the current
    // tick, in link order (canonical, hence deterministic).
    for (const auto& e : ends) {
      for (Unacked& u : link(e[0], e[1]).window) {
        if (u.attempts != 0) continue;
        u.attempts = 1;
        u.last_sent = tick;
        const std::optional<PacketView> pkt = parse_packet_view(*u.frame);
        EMCGM_ASSERT(pkt.has_value());
        transmit(*pkt, u.frame);
      }
    }

    const bool all_acked =
        link(lo, hi).window.empty() && link(hi, lo).window.empty();
    if (all_acked) break;

    // Advance the clock to the next thing that happens: an arrival or the
    // earliest retransmission deadline.
    const std::uint64_t next_event = events.empty() ? kNever
                                                    : events.top().tick;
    std::uint64_t next_rto = kNever;
    for (const auto& e : ends) {
      for (const Unacked& u : link(e[0], e[1]).window) {
        if (u.attempts == 0) continue;
        next_rto = std::min(next_rto, u.last_sent + rto(u.attempts));
      }
    }
    EMCGM_ASSERT(next_event != kNever || next_rto != kNever);
    tick = std::min(next_event, next_rto);

    // Arrivals first: an ack landing at this tick cancels a same-tick
    // retransmission.
    while (!events.empty() && events.top().tick <= tick) {
      const SharedFrame frame = events.top().frame;
      events.pop();
      handle_arrival(*frame);
    }

    // Then retransmissions that are (still) due.
    for (const auto& e : ends) {
      LinkState& l = link(e[0], e[1]);
      for (Unacked& u : l.window) {
        if (u.attempts == 0 || u.last_sent + rto(u.attempts) > tick) continue;
        if (u.attempts >= cfg_.retry.max_attempts) {
          // Budget exhausted: record and stop the pair where it stands.
          // reset_links() clears the leftover windows before any replay.
          out.error = std::make_exception_ptr(NetError(e[0], e[1],
                                                       u.attempts));
          return;
        }
        ++u.attempts;
        u.last_sent = tick;
        ++out.stats.retransmissions;
        const std::optional<PacketView> pkt = parse_packet_view(*u.frame);
        EMCGM_ASSERT(pkt.has_value());
        transmit(*pkt, u.frame);
      }
    }
  }
  // Quiescent: every payload delivered and acked. In-flight leftovers are
  // duplicates and stale acks — dropped with the pair-local queue.
}

std::vector<std::vector<Delivery>> SimNetwork::finish_pairs(
    std::vector<PairOutcome>& outs) {
  // Merge statistics in canonical pair order. Every counter is an additive
  // total, so the merged value equals what one global event loop would have
  // counted — order only matters for reproducibility of intermediate reads.
  std::uint64_t round_wire_bytes = 0;
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      stats_ += outs[slot(lo, hi)].stats;
      round_wire_bytes += outs[slot(lo, hi)].stats.wire_bytes;
    }
  }
  // Arbitration probe: one charge per closed round, tagged with the owning
  // job. Charged before any pair error rethrows — the wire traffic happened.
  if (charge_ && round_wire_bytes > 0) charge_(job_tag_, round_wire_bytes);
  if (tracer_) {
    // Publish one net_pair span per pair that carried traffic, in canonical
    // pair order. Timestamps were recorded by whichever thread simulated the
    // pair; only this (collector) thread writes the engine shard.
    std::uint32_t pair_index = 0;
    for (std::uint32_t lo = 0; lo < p_; ++lo) {
      for (std::uint32_t hi = lo + 1; hi < p_; ++hi, ++pair_index) {
        const PairOutcome& o = outs[slot(lo, hi)];
        if (o.stats.wire_bytes == 0 && o.stats.delivered_messages == 0) {
          continue;
        }
        obs::Span s;
        s.kind = obs::SpanKind::kNetPair;
        s.host = tracer_->engine_pid();
        s.track = 1 + pair_index;
        s.group = lo;
        s.vproc = hi;
        s.step = cur_step_;
        s.start_ns = o.t0_ns;
        s.dur_ns = o.t1_ns >= o.t0_ns ? o.t1_ns - o.t0_ns : 0;
        s.aux0 = o.stats.wire_bytes;
        s.aux1 = o.stats.delivered_messages;
        tracer_->engine_shard().emit(std::move(s));
      }
    }
  }
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      if (outs[slot(lo, hi)].error) {
        std::rethrow_exception(outs[slot(lo, hi)].error);
      }
    }
  }
  // Canonical inbox assembly: per destination, per-link FIFO streams merged
  // in src-ascending order. (Callers that need a different order sort the
  // parsed records themselves — the engine stable-sorts by (src, dst).)
  std::vector<std::vector<Delivery>> inbox(p_);
  for (std::uint32_t dst = 0; dst < p_; ++dst) {
    for (std::uint32_t src = 0; src < p_; ++src) {
      if (src == dst) continue;
      PairOutcome& o = outs[slot(std::min(src, dst), std::max(src, dst))];
      std::vector<Delivery>& from = dst < src ? o.to_lo : o.to_hi;
      for (Delivery& d : from) inbox[dst].push_back(std::move(d));
      from.clear();
    }
  }
  return inbox;
}

std::vector<std::vector<Delivery>> SimNetwork::run_to_quiescence() {
  EMCGM_CHECK_MSG(!round_active(),
                  "run_to_quiescence during an open mailbox round");
  std::vector<PairOutcome> outs(static_cast<std::size_t>(p_) * p_);
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      PairOutcome& out = outs[slot(lo, hi)];
      if (tracer_) out.t0_ns = tracer_->now_ns();
      run_pair(lo, hi, out);
      if (tracer_) out.t1_ns = tracer_->now_ns();
    }
  }
  return finish_pairs(outs);
}

// --------------------------------------------------------- mailbox round ----

void SimNetwork::note_sender_done_locked(std::uint32_t s) {
  EMCGM_ASSERT(!sender_done_[s]);
  sender_done_[s] = 1;
  // A pair becomes runnable when its *second* endpoint finishes, so each
  // pair is enqueued exactly once.
  bool woke = false;
  for (std::uint32_t t = 0; t < p_; ++t) {
    if (t == s || !sender_done_[t]) continue;
    ready_.push_back(
        static_cast<std::uint32_t>(slot(std::min(s, t), std::max(s, t))));
    woke = true;
  }
  if (woke) work_cv_.notify_one();
}

void SimNetwork::run_pair_slot(std::uint32_t lo, std::uint32_t hi,
                               std::unique_lock<std::mutex>& lk) {
  // Take ownership of the pair's mailboxes, then simulate without the lock:
  // the pair's links and coin cursors are touched by no one else until
  // pair_done_ is published below.
  std::vector<std::byte> lo_hi = std::move(mail_[slot(lo, hi)]);
  std::vector<std::byte> hi_lo = std::move(mail_[slot(hi, lo)]);
  mail_[slot(lo, hi)].clear();
  mail_[slot(hi, lo)].clear();
  lk.unlock();

  PairOutcome& out = pair_out_[slot(lo, hi)];
  if (tracer_) out.t0_ns = tracer_->now_ns();
  load_pair_mail(lo, hi, std::move(lo_hi), std::move(hi_lo));
  run_pair(lo, hi, out);
  if (tracer_) out.t1_ns = tracer_->now_ns();

  lk.lock();
  pair_done_[slot(lo, hi)] = 1;
  EMCGM_ASSERT(pairs_left_ > 0);
  if (--pairs_left_ == 0) done_cv_.notify_all();
}

void SimNetwork::load_pair_mail(std::uint32_t lo, std::uint32_t hi,
                                std::vector<std::byte> lo_to_hi,
                                std::vector<std::byte> hi_to_lo) {
  const std::size_t mtu = cfg_.mtu_bytes;
  EMCGM_CHECK(mtu > 0);
  const std::uint32_t ends[2][2] = {{lo, hi}, {hi, lo}};
  const std::span<const std::byte> streams[2] = {lo_to_hi, hi_to_lo};
  for (int d = 0; d < 2; ++d) {
    const std::span<const std::byte> bytes = streams[d];
    for (std::size_t off = 0; off < bytes.size(); off += mtu) {
      enqueue_data(ends[d][0], ends[d][1],
                   bytes.subspan(off, std::min(mtu, bytes.size() - off)));
    }
  }
}

void SimNetwork::pump_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return shutdown_ || !ready_.empty(); });
    if (shutdown_) return;
    const std::uint32_t s = ready_.front();
    ready_.pop_front();
    run_pair_slot(s / p_, s % p_, lk);
  }
}

void SimNetwork::begin_round() {
  std::unique_lock<std::mutex> lk(mu_);
  EMCGM_CHECK_MSG(!round_active_, "begin_round with a round already open");
  round_active_ = true;
  std::fill(sender_done_.begin(), sender_done_.end(), char{0});
  for (auto& m : mail_) m.clear();
  for (auto& o : pair_out_) o = PairOutcome{};
  std::fill(pair_done_.begin(), pair_done_.end(), char{0});
  ready_.clear();
  pairs_left_ = p_ * (p_ - 1) / 2;
  if (cfg_.mailbox_pump && p_ > 1 && !pump_.joinable()) {
    pump_ = std::thread([this] { pump_main(); });
  }
  // Dead processors post nothing: their pairs are runnable immediately
  // (trivially empty — zero frames, zero fault coins).
  for (std::uint32_t q = 0; q < p_; ++q) {
    if (dead_[q]) note_sender_done_locked(q);
  }
}

void SimNetwork::post(std::uint32_t src, std::uint32_t dst,
                      std::vector<std::byte> bytes) {
  EMCGM_CHECK(src < p_ && dst < p_ && src != dst);
  if (bytes.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  EMCGM_CHECK_MSG(round_active_, "post outside a mailbox round");
  EMCGM_CHECK_MSG(!sender_done_[src], "post after finish_sender");
  EMCGM_CHECK_MSG(!dead_[src] && !dead_[dst],
                  "post on a link with a dead endpoint: " << src << "->"
                                                          << dst);
  auto& box = mail_[slot(src, dst)];
  if (box.empty()) {
    box = std::move(bytes);
  } else {
    box.insert(box.end(), bytes.begin(), bytes.end());
  }
}

void SimNetwork::finish_sender(std::uint32_t src) {
  EMCGM_CHECK(src < p_);
  std::lock_guard<std::mutex> lk(mu_);
  EMCGM_CHECK_MSG(round_active_, "finish_sender outside a mailbox round");
  EMCGM_CHECK_MSG(!sender_done_[src], "finish_sender called twice");
  note_sender_done_locked(src);
}

std::vector<std::vector<Delivery>> SimNetwork::collect() {
  std::unique_lock<std::mutex> lk(mu_);
  EMCGM_CHECK_MSG(round_active_, "collect outside a mailbox round");
  for (std::uint32_t s = 0; s < p_; ++s) {
    EMCGM_CHECK_MSG(sender_done_[s],
                    "collect before sender " << s << " finished");
  }
  if (pump_.joinable()) {
    done_cv_.wait(lk, [&] { return pairs_left_ == 0; });
  } else {
    while (pairs_left_ > 0) {
      EMCGM_ASSERT(!ready_.empty());
      const std::uint32_t s = ready_.front();
      ready_.pop_front();
      run_pair_slot(s / p_, s % p_, lk);
    }
  }
  std::vector<PairOutcome> outs = std::move(pair_out_);
  pair_out_.assign(static_cast<std::size_t>(p_) * p_, PairOutcome{});
  ready_.clear();
  round_active_ = false;
  lk.unlock();
  return finish_pairs(outs);
}

void SimNetwork::abort_round() {
  std::unique_lock<std::mutex> lk(mu_);
  if (!round_active_) return;
  for (std::uint32_t s = 0; s < p_; ++s) {
    if (!sender_done_[s]) note_sender_done_locked(s);
  }
  if (pump_.joinable()) {
    done_cv_.wait(lk, [&] { return pairs_left_ == 0; });
  } else {
    while (pairs_left_ > 0) {
      EMCGM_ASSERT(!ready_.empty());
      const std::uint32_t s = ready_.front();
      ready_.pop_front();
      run_pair_slot(s / p_, s % p_, lk);
    }
  }
  std::vector<PairOutcome> outs = std::move(pair_out_);
  pair_out_.assign(static_cast<std::size_t>(p_) * p_, PairOutcome{});
  ready_.clear();
  round_active_ = false;
  lk.unlock();
  // Statistics still merge (the wire traffic happened; both modes count it
  // identically); deliveries and link errors of the abandoned round do not
  // survive — the superstep is being replayed.
  for (std::uint32_t lo = 0; lo < p_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < p_; ++hi) {
      stats_ += outs[slot(lo, hi)].stats;
    }
  }
}

// ------------------------------------------------------------ liveness ----

std::vector<std::uint32_t> SimNetwork::heartbeat_round(std::uint64_t step) {
  EMCGM_CHECK_MSG(!round_active(),
                  "heartbeat_round during an open mailbox round");
  ++stats_.heartbeat_rounds;
  if (!hb_init_) {
    hb_init_ = true;
    std::fill(last_seen_.begin(), last_seen_.end(),
              static_cast<std::int64_t>(step) - 1);
  }

  std::uint32_t live = 0;
  for (std::uint32_t q = 0; q < p_; ++q) live += dead_[q] ? 0 : 1;

  // Every live processor beats to every other; being heard by anyone renews
  // the lease. Heartbeats see only fail-stop (net_fault.h), so this is the
  // eventually-perfect detector: with <= 1 peer there is no one to miss you.
  if (live > 1) {
    for (std::uint32_t i = 0; i < p_; ++i) {
      if (dead_[i]) continue;
      for (std::uint32_t j = 0; j < p_; ++j) {
        if (j == i || dead_[j]) continue;
        ++stats_.heartbeats_sent;
        stats_.wire_bytes += kPacketHeaderBytes;
        if (crossing(i, j)) stats_.crossing_wire_bytes += kPacketHeaderBytes;
        const LinkVerdict v = injector_.on_transmit(
            i, j, PacketType::kHeartbeat, kPacketHeaderBytes);
        if (v.drop) {
          ++stats_.dropped;
          continue;
        }
        last_seen_[i] =
            std::max(last_seen_[i], static_cast<std::int64_t>(step));
      }
    }
  }

  std::vector<std::uint32_t> newly_dead;
  if (live > 1) {
    for (std::uint32_t i = 0; i < p_; ++i) {
      if (dead_[i]) continue;
      const std::int64_t missed =
          static_cast<std::int64_t>(step) - last_seen_[i];
      if (missed >= static_cast<std::int64_t>(cfg_.heartbeat_miss_threshold)) {
        newly_dead.push_back(i);
      }
    }
  }
  for (std::uint32_t q : newly_dead) mark_dead(q);
  return newly_dead;
}

void SimNetwork::reset_links() {
  EMCGM_CHECK_MSG(!round_active(), "reset_links during an open mailbox round");
  for (LinkState& l : links_) {
    l.window.clear();
    l.ooo.clear();
    l.next_seq = 1;
    l.expect = 1;
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& m : mail_) m.clear();
}

std::vector<std::uint32_t> SimNetwork::probe_dead() {
  std::vector<std::uint32_t> newly_dead;
  for (std::uint32_t q = 0; q < p_; ++q) {
    if (!dead_[q] && injector_.fail_stopped(q)) newly_dead.push_back(q);
  }
  for (std::uint32_t q : newly_dead) mark_dead(q);
  return newly_dead;
}

}  // namespace emcgm::net
