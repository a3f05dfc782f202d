#include "net/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace sensrep::net {

using geometry::Vec2;

// obs cannot see metrics::MessageCategory (sensrep_metrics links against
// sensrep_obs, not the reverse), so its label table is a mirror. This TU sees
// both headers: pin the sizes together; metrics_plane_test pins the names.
static_assert(obs::kNetCategories ==
                  static_cast<std::size_t>(metrics::MessageCategory::kCount),
              "obs::kCategoryLabel must mirror metrics::MessageCategory");

namespace {
inline std::size_t cat_index(const Packet& pkt) noexcept {
  return static_cast<std::size_t>(pkt.category());
}
}  // namespace

void RadioConfig::validate() const {
  // Negated comparisons so NaN fails every test.
  if (!(bitrate_bps > 0.0) || !std::isfinite(bitrate_bps)) {
    throw std::invalid_argument("RadioConfig: bitrate must be positive and finite");
  }
  if (!(max_backoff_s >= 0.0) || !std::isfinite(max_backoff_s)) {
    throw std::invalid_argument("RadioConfig: max_backoff must be finite and non-negative");
  }
  if (!(propagation_s >= 0.0) || !std::isfinite(propagation_s)) {
    throw std::invalid_argument("RadioConfig: propagation delay must be finite and non-negative");
  }
  if (!(loss_probability >= 0.0 && loss_probability <= 1.0)) {
    throw std::invalid_argument("RadioConfig: loss probability must be in [0, 1]");
  }
  if (unicast_retries < 0) {
    throw std::invalid_argument("RadioConfig: unicast retries must be non-negative");
  }
  chaos.validate();
}

Medium::Medium(sim::Simulator& simulator, sim::Rng rng, RadioConfig config,
               metrics::TransmissionCounters& counters, double bucket_size_m)
    : sim_(&simulator),
      rng_(rng),
      config_(config),
      counters_(&counters),
      index_(bucket_size_m),
      mobile_index_(bucket_size_m) {
  config_.validate();
  if (config_.chaos.any_enabled()) {
    // fork() is a pure function of (seed, name): instantiating the chaos
    // model never perturbs the medium's existing backoff/loss draw streams.
    chaos_ = std::make_unique<chaos::LinkModel>(config_.chaos, rng_);
  }
}

void Medium::attach(NodeId id, Vec2 pos, double tx_range, ReceiveFn rx) {
  if (!is_real_node(id)) throw std::invalid_argument("Medium::attach: reserved id");
  if (tx_range <= 0.0) throw std::invalid_argument("Medium::attach: non-positive range");
  if (id >= nodes_.size()) {
    nodes_.resize(id + 1);
    fixed_receivers_.resize(id + 1);
  }
  if (nodes_[id].attached) throw std::invalid_argument("Medium::attach: duplicate id");
  nodes_[id] = Transceiver{pos, tx_range, true, true, false, std::move(rx)};
  index_.upsert(id, pos);
  ++fixed_generation_;
}

void Medium::detach(NodeId id) {
  if (id < nodes_.size()) nodes_[id] = Transceiver{};
  index_.erase(id);
  mobile_index_.erase(id);
  ++fixed_generation_;
}

const Medium::Transceiver& Medium::get(NodeId id) const {
  if (id >= nodes_.size() || !nodes_[id].attached) {
    throw std::out_of_range("Medium: unknown node");
  }
  return nodes_[id];
}

Medium::Transceiver& Medium::get(NodeId id) {
  if (id >= nodes_.size() || !nodes_[id].attached) {
    throw std::out_of_range("Medium: unknown node");
  }
  return nodes_[id];
}

void Medium::set_position(NodeId id, Vec2 pos) {
  Transceiver& t = get(id);
  if (!t.mobile) {
    t.mobile = true;
    ++fixed_generation_;  // the fixed set lost a node
  }
  t.pos = pos;
  index_.upsert(id, pos);
  mobile_index_.upsert(id, pos);
}

void Medium::set_alive(NodeId id, bool alive_flag) { get(id).alive = alive_flag; }

bool Medium::attached(NodeId id) const noexcept {
  return id < nodes_.size() && nodes_[id].attached;
}

bool Medium::alive(NodeId id) const { return get(id).alive; }

Vec2 Medium::position_of(NodeId id) const { return get(id).pos; }

double Medium::tx_range_of(NodeId id) const { return get(id).tx_range; }

bool Medium::in_range(NodeId sender, NodeId receiver) const {
  const Transceiver& s = get(sender);
  const Transceiver& r = get(receiver);
  return geometry::distance2(s.pos, r.pos) <= s.tx_range * s.tx_range;
}

std::vector<NodeId> Medium::neighbors_of(NodeId sender) const {
  const Transceiver& s = get(sender);
  std::vector<NodeId> out;
  index_.query_ball(s.pos, s.tx_range, out);
  std::erase_if(out, [&](NodeId id) { return id == sender || !nodes_[id].alive; });
  return out;
}

std::vector<NodeId> Medium::nodes_near(Vec2 pos, double radius) const {
  std::vector<NodeId> out;
  index_.query_ball(pos, radius, out);
  std::erase_if(out, [&](NodeId id) { return !nodes_[id].alive; });
  return out;
}

const std::vector<NodeId>& Medium::receivers_of(NodeId sender, const Transceiver& s) {
  if (s.mobile) {
    index_.query_ball(s.pos, s.tx_range, receiver_scratch_);
    std::erase(receiver_scratch_, sender);
    return receiver_scratch_;
  }
  // Neither a fixed sender nor its fixed receivers have moved since the
  // cache was filled, so only the mobile nodes need a fresh query. Same
  // predicate (query_ball's closed ball) on both sides; the two sets are
  // disjoint, so merging them gives the full query's ascending order.
  FixedReceivers& fixed = fixed_receivers_[sender];
  if (fixed.generation != fixed_generation_) {
    index_.query_ball(s.pos, s.tx_range, fixed.ids);
    std::erase_if(fixed.ids, [&](NodeId id) { return id == sender || nodes_[id].mobile; });
    fixed.generation = fixed_generation_;
  }
  mobile_index_.query_ball(s.pos, s.tx_range, mobile_scratch_);
  if (mobile_scratch_.empty()) return fixed.ids;
  receiver_scratch_.clear();
  std::merge(fixed.ids.begin(), fixed.ids.end(), mobile_scratch_.begin(),
             mobile_scratch_.end(), std::back_inserter(receiver_scratch_));
  return receiver_scratch_;
}

sim::Duration Medium::serialization_time(const Packet& pkt) const noexcept {
  return static_cast<double>(pkt.size_bytes()) * 8.0 / config_.bitrate_bps;
}

sim::Duration Medium::frame_delay(const Packet& pkt) noexcept {
  const double backoff = rng_.uniform(0.0, config_.max_backoff_s);
  return serialization_time(pkt) + config_.propagation_s + backoff;
}

void Medium::deliver_later(Frame& frame, NodeId to, sim::Duration delay) {
  // Same instant as Simulator::in(delay) would compute.
  const sim::SimTime at = sim_->now() + delay;
  if (frame.last == kNoFanOut || fanouts_[frame.last].at != at) {
    frame.last = open_fanout(frame, at);
  }
  FanOut& f = fanouts_[frame.last];
  if (!f.to.empty()) ++batched_pending_;
  f.to.push_back(to);

  if (config_.model_collisions && frame.collidable) {
    // The frame occupies the receiver's channel for its serialization time,
    // ending at the delivery instant. Any overlapping frame corrupts both.
    const sim::SimTime start = at - serialization_time(frame.pkt);
    auto corrupted = std::make_shared<bool>(false);
    auto& slots = pending_[to];
    // Prune expired windows while scanning for overlaps.
    std::erase_if(slots, [now = sim_->now()](const PendingArrival& a) {
      return a.end < now;
    });
    for (PendingArrival& a : slots) {
      if (a.start < at && start < a.end) {
        *a.corrupted = true;
        *corrupted = true;
      }
    }
    slots.push_back({start, at, corrupted});
    f.corrupted.push_back(std::move(corrupted));
  }
}

std::uint32_t Medium::open_fanout(const Frame& frame, sim::SimTime at) {
  std::uint32_t index = 0;
  if (free_fanouts_.empty()) {
    index = static_cast<std::uint32_t>(fanouts_.size());
    fanouts_.emplace_back();
  } else {
    index = free_fanouts_.back();
    free_fanouts_.pop_back();
  }
  FanOut& f = fanouts_[index];
  f.pkt = frame.pkt;
  f.from = frame.from;
  f.at = at;
  // The hottest event in the simulation: it must take the event pool's
  // inline path, never the boxed one.
  static_assert(sizeof(FanOutDelivery) <= sim::EventQueue::kInlineBytes &&
                    alignof(FanOutDelivery) <= alignof(std::max_align_t),
                "a fan-out event must store inline in the event pool");
  sim_->at(at, FanOutDelivery{this, index});
  return index;
}

void Medium::deliver(std::uint32_t index) {
  // Stable across the handlers below: they may open fan-outs, never this one.
  FanOut& f = fanouts_[index];
  for (std::size_t i = 0; i < f.to.size(); ++i) {
    if (i > 0) {
      // The queue counted this fan-out's event for its first receiver.
      --batched_pending_;
      ++batched_executed_;
    }
    if (!f.corrupted.empty() && *f.corrupted[i]) {
      ++collisions_;
      obs::Metrics::inc(obs::Counter::kNetCollisions);
      continue;
    }
    const NodeId to = f.to[i];
    if (to >= nodes_.size()) continue;
    const Transceiver& r = nodes_[to];
    if (!r.attached || !r.alive) continue;  // detached or died in flight
    ++deliveries_;
    obs::Metrics::net_rx(cat_index(f.pkt));
    if (r.rx) r.rx(f.pkt, f.from);
  }
  f.to.clear();
  f.corrupted.clear();
  free_fanouts_.push_back(index);
}

bool Medium::jammed_now(NodeId id, const Transceiver& t) const noexcept {
  return chaos_ && chaos_->jammed(sim_->now(), id, t.pos);
}

void Medium::deliver_chaotic(Frame& frame, NodeId to, sim::Duration delay) {
  if (!chaos_) {
    deliver_later(frame, to, delay);
    return;
  }
  const sim::Duration jittered = delay + chaos_->jitter();
  deliver_later(frame, to, jittered);
  if (chaos_->duplicate()) {
    // A duplicate is a reception artifact (stale frame, reflection), not a
    // retransmission: it costs no counted transmission and lands late enough
    // to reorder against subsequent traffic.
    ++chaos_duplicates_;
    obs::Metrics::inc(obs::Counter::kNetChaosDuplicates);
    deliver_later(frame, to, jittered + chaos_->duplicate_delay());
  }
}

void Medium::broadcast(NodeId sender, Packet pkt) {
  const Transceiver& s = get(sender);
  assert(s.alive && "dead node cannot transmit");
  counters_->add(pkt.category());
  obs::Metrics::net_tx(cat_index(pkt));
  if (jammed_now(sender, s)) {
    // A jammed sender still burns the transmission; nobody hears it.
    ++chaos_jams_;
    obs::Metrics::inc(obs::Counter::kNetChaosJams);
    return;
  }
  const sim::Duration delay = frame_delay(pkt);
  pkt.hops += 1;
  Frame frame{pkt, sender, /*collidable=*/true};
  for (const NodeId id : receivers_of(sender, s)) {
    const Transceiver& r = nodes_[id];
    if (!r.alive) continue;
    if (config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability)) {
      obs::Metrics::inc(obs::Counter::kNetLossDrops);
      continue;
    }
    if (chaos_) {
      if (jammed_now(id, r)) {
        ++chaos_jams_;
        obs::Metrics::inc(obs::Counter::kNetChaosJams);
        continue;
      }
      if (chaos_->burst_drop()) {
        ++chaos_drops_;
        obs::Metrics::inc(obs::Counter::kNetChaosDrops);
        continue;
      }
    }
    deliver_chaotic(frame, id, delay);
  }
}

bool Medium::unicast(NodeId sender, NodeId target, Packet pkt) {
  const Transceiver& s = get(sender);
  assert(s.alive && "dead node cannot transmit");
  (void)s;
  const Transceiver* t =
      target < nodes_.size() && nodes_[target].attached ? &nodes_[target] : nullptr;
  const bool reachable = t != nullptr && t->alive && in_range(sender, target);

  // An active partition behaves like loss = 1, not like a missing node: every
  // ARQ attempt is still burned (and counted) before the sender gives up.
  bool jammed = false;
  if (chaos_ &&
      (jammed_now(sender, s) || (t != nullptr && jammed_now(target, *t)))) {
    jammed = true;
    ++chaos_jams_;
    obs::Metrics::inc(obs::Counter::kNetChaosJams);
  }

  // 802.11-style ARQ: each attempt is one counted transmission; the sender
  // learns of success/failure via the (implicit) link-layer ACK. A missing
  // ACK (unreachable target or loss) triggers a retry up to the budget.
  const int attempts = 1 + config_.unicast_retries;
  for (int a = 0; a < attempts; ++a) {
    counters_->add(pkt.category());
    obs::Metrics::net_tx(cat_index(pkt));
    bool lost =
        config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability);
    if (lost) obs::Metrics::inc(obs::Counter::kNetLossDrops);
    if (chaos_ && chaos_->burst_drop()) {  // advances the GE chain per attempt
      ++chaos_drops_;
      obs::Metrics::inc(obs::Counter::kNetChaosDrops);
      lost = true;
    }
    if (reachable && !jammed && !lost) {
      const sim::Duration delay = frame_delay(pkt);
      pkt.hops += 1;
      Frame frame{pkt, sender, /*collidable=*/false};
      deliver_chaotic(frame, target, delay);
      return true;
    }
    if (!reachable && config_.loss_probability == 0.0) return false;  // deterministic: retrying is futile
  }
  return false;
}

}  // namespace sensrep::net
