#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chaos/link_model.hpp"
#include "geometry/spatial_hash.hpp"
#include "geometry/vec2.hpp"
#include "metrics/counters.hpp"
#include "net/packet.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sensrep::net {

/// Radio / MAC parameters.
///
/// Stands in for GloMoSim's IEEE 802.11 stack (see DESIGN.md substitution 1):
/// unit-disk connectivity with per-transmitter range, serialization at the
/// nominal 11 Mbps bit-rate, uniform CSMA backoff jitter, and optional
/// Bernoulli loss with 802.11-style unicast retransmission.
struct RadioConfig {
  double bitrate_bps = 11e6;      // nominal 802.11b rate (paper §4.1)
  double max_backoff_s = 2e-3;    // CSMA contention jitter bound
  double propagation_s = 1e-6;    // ~300 m at light speed; effectively 0
  double loss_probability = 0.0;  // per-reception Bernoulli loss
  int unicast_retries = 3;        // extra attempts after a lost unicast

  /// Model collisions between overlapping *broadcast* frames at a receiver
  /// (two frames on air at once corrupt each other). Unicasts stay
  /// collision-free: 802.11 protects DATA with virtual carrier sense
  /// (RTS/CTS) and recovers residual losses with ARQ, which the
  /// loss_probability + unicast_retries knobs model. Off by default — the
  /// paper reports contention is negligible at its traffic load, and this
  /// flag exists to check that claim.
  bool model_collisions = false;

  /// Adversarial link behaviors (bursty loss, duplication, reorder jitter,
  /// partition windows). Inert by default; see chaos::ChaosConfig.
  chaos::ChaosConfig chaos;

  /// Throws std::invalid_argument on NaN / out-of-range probabilities,
  /// non-positive bitrate, negative delays/retries, or malformed chaos knobs.
  void validate() const;
};

/// The shared wireless medium.
///
/// Owns the ground-truth position/range/liveness of every transceiver and
/// performs packet delivery: a broadcast reaches every *alive* node within
/// the sender's transmission range; a unicast reaches only its target (with
/// link-layer ARQ under loss). Every radio send increments the per-category
/// transmission counter — the paper's messaging-overhead metric.
///
/// A node is *fixed* until its first set_position() and *mobile* from then
/// on: sensors never move, robots do. A fixed sender's fixed receivers are
/// cached, so a broadcast only queries the (few) mobile nodes near it.
class Medium {
 public:
  /// Called on packet reception: (packet, link-layer sender).
  using ReceiveFn = std::function<void(const Packet&, NodeId from)>;

  /// `bucket_size_m` tunes the spatial index; the sensor TX range is a good
  /// choice. All references must outlive the medium.
  Medium(sim::Simulator& simulator, sim::Rng rng, RadioConfig config,
         metrics::TransmissionCounters& counters, double bucket_size_m = 63.0);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a transceiver. `tx_range` is this node's transmission range.
  void attach(NodeId id, geometry::Vec2 pos, double tx_range, ReceiveFn rx);

  /// Unregisters a transceiver (node permanently removed, not just failed).
  void detach(NodeId id);

  /// Moves a transceiver (robots). The first move makes the node mobile.
  void set_position(NodeId id, geometry::Vec2 pos);

  /// Marks a node dead (failed sensor: no TX, no RX) or alive again.
  void set_alive(NodeId id, bool alive);

  [[nodiscard]] bool attached(NodeId id) const noexcept;
  [[nodiscard]] bool alive(NodeId id) const;
  [[nodiscard]] geometry::Vec2 position_of(NodeId id) const;
  [[nodiscard]] double tx_range_of(NodeId id) const;

  /// True if `receiver` is within `sender`'s transmission range (asymmetric:
  /// the paper's robots transmit 250 m but sensors only 63 m).
  [[nodiscard]] bool in_range(NodeId sender, NodeId receiver) const;

  /// Alive nodes within the sender's TX range, excluding the sender,
  /// ascending id order.
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId sender) const;

  /// Alive nodes within `radius` of `pos`, ascending id order.
  [[nodiscard]] std::vector<NodeId> nodes_near(geometry::Vec2 pos, double radius) const;

  /// One-hop broadcast. Counts one transmission; every alive node in range
  /// hears it after one serialization + backoff delay drawn for the frame.
  /// The receptions form one fan-out: a single queue event that delivers to
  /// them in ascending id order, the order of neighbors_of(sender).
  void broadcast(NodeId sender, Packet pkt);

  /// Link-layer unicast with ARQ. Counts one transmission per attempt.
  /// Returns true if the frame was accepted for delivery (target alive, in
  /// range, and not all attempts lost) — modeling the 802.11 ACK the sender
  /// observes synchronously at this abstraction level.
  bool unicast(NodeId sender, NodeId target, Packet pkt);

  [[nodiscard]] const metrics::TransmissionCounters& counters() const noexcept {
    return *counters_;
  }

  /// Books transmissions that are modeled analytically rather than as
  /// delivered frames (beacons; see DESIGN.md substitution 3).
  void account(metrics::MessageCategory c, std::uint64_t n = 1) noexcept {
    counters_->add(c, n);
    obs::Metrics::net_tx(static_cast<std::size_t>(c), n);
  }

  /// Total frames handed to receivers (diagnostics).
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }

  /// Broadcast frames destroyed by collisions (model_collisions only).
  [[nodiscard]] std::uint64_t collisions() const noexcept { return collisions_; }

  /// Receptions dropped by the chaos burst-loss model.
  [[nodiscard]] std::uint64_t chaos_drops() const noexcept { return chaos_drops_; }

  /// Duplicate copies injected by the chaos duplication model.
  [[nodiscard]] std::uint64_t chaos_duplicates() const noexcept { return chaos_duplicates_; }

  /// Send/receive opportunities suppressed by an active partition window.
  [[nodiscard]] std::uint64_t chaos_jams() const noexcept { return chaos_jams_; }

  /// True when any adversarial link behavior is active.
  [[nodiscard]] bool chaos_active() const noexcept { return chaos_ != nullptr; }

  /// Receptions that ride in a fan-out behind its first receiver and are
  /// still in flight. The queue holds one event per fan-out, so
  /// Simulator::pending() + batched_pending() counts one pending event per
  /// reception, as a queue event per receiver would.
  [[nodiscard]] std::uint64_t batched_pending() const noexcept { return batched_pending_; }

  /// Receptions delivered behind the first receiver of their fan-out.
  /// Simulator::executed() + batched_executed() counts one executed event
  /// per reception.
  [[nodiscard]] std::uint64_t batched_executed() const noexcept { return batched_executed_; }

 private:
  struct Transceiver {
    geometry::Vec2 pos;
    double tx_range = 0.0;
    bool alive = true;
    bool attached = false;
    bool mobile = false;  // set by the first set_position(), never cleared
    ReceiveFn rx;
  };

  /// A fixed sender's fixed receivers: the ids of the fixed nodes within its
  /// range, sender excluded, alive or not, ascending. Valid while
  /// `generation` equals fixed_generation_.
  struct FixedReceivers {
    std::uint64_t generation = 0;
    std::vector<NodeId> ids;
  };

  /// Every node within `sender`'s range but itself, alive or not, ascending
  /// id. Points into the cache or a scratch buffer; valid until the next call.
  [[nodiscard]] const std::vector<NodeId>& receivers_of(NodeId sender, const Transceiver& s);

  [[nodiscard]] const Transceiver& get(NodeId id) const;
  [[nodiscard]] Transceiver& get(NodeId id);
  [[nodiscard]] sim::Duration frame_delay(const Packet& pkt) noexcept;
  [[nodiscard]] sim::Duration serialization_time(const Packet& pkt) const noexcept;

  /// Receptions of one frame that land at the same instant. One queue event
  /// (FanOutDelivery) hands the frame to `to` in order; pooled, so the
  /// vectors keep their capacity across broadcasts.
  struct FanOut {
    Packet pkt;  // as received: hops already counted
    NodeId from = kNoNode;
    sim::SimTime at = 0.0;
    std::vector<NodeId> to;
    /// Parallel to `to` when the frame is collidable under model_collisions
    /// (each flag shared with that receiver's collision window), else empty.
    std::vector<std::shared_ptr<bool>> corrupted;
  };

  static constexpr std::uint32_t kNoFanOut = 0xffffffffu;

  /// The queue event of one fan-out: an index into the medium's fan-out
  /// pool rather than the frame itself, so it stores inline in the event
  /// pool (medium.cpp pins that) and a broadcast allocates nothing once the
  /// pool is warm.
  struct FanOutDelivery {
    Medium* medium;
    std::uint32_t fanout;
    void operator()() const { medium->deliver(fanout); }
  };

  /// One transmission's receptions while it is being sent. A reception joins
  /// the most recently opened fan-out when its instant matches, else opens a
  /// new one. Nothing else is scheduled while a frame is sent, so fan-outs
  /// sharing an instant pop in the order their receptions were added, and
  /// the (time, schedule order) pop order of a queue event per reception is
  /// kept exactly. Without chaos every reception shares one fan-out.
  struct Frame {
    const Packet& pkt;  // hops already counted
    NodeId from;
    bool collidable;
    std::uint32_t last = kNoFanOut;
  };

  /// Adds one reception of `frame` by `to`, landing `delay` from now.
  void deliver_later(Frame& frame, NodeId to, sim::Duration delay);

  /// Delivery front-end applying the chaos duplication/jitter models; falls
  /// through to deliver_later() unchanged when chaos is off.
  void deliver_chaotic(Frame& frame, NodeId to, sim::Duration delay);

  /// Pops a pooled fan-out for `frame` landing at `at` and schedules it.
  [[nodiscard]] std::uint32_t open_fanout(const Frame& frame, sim::SimTime at);

  /// Runs fan-out `index`: delivers to each receiver still attached, alive
  /// and uncorrupted, then returns the fan-out to the pool.
  void deliver(std::uint32_t index);

  /// True when `id` is jammed by an active partition window right now.
  [[nodiscard]] bool jammed_now(NodeId id, const Transceiver& t) const noexcept;

  /// A frame's on-air interval at one receiver, with a corruption flag
  /// shared with that reception's slot in its fan-out.
  struct PendingArrival {
    sim::SimTime start;
    sim::SimTime end;
    std::shared_ptr<bool> corrupted;
  };

  sim::Simulator* sim_;
  sim::Rng rng_;
  RadioConfig config_;
  metrics::TransmissionCounters* counters_;
  geometry::SpatialHash index_;         // every attached node
  geometry::SpatialHash mobile_index_;  // mobile nodes only
  /// Dense table indexed by NodeId (ids are dense: sensors [0, n), robots and
  /// the manager right above). Hot delivery paths index straight into it
  /// instead of hashing per receiver.
  std::vector<Transceiver> nodes_;
  /// Indexed like nodes_. Sensors never move, so a fixed sender's fixed
  /// receivers only change when the fixed set does: attach, detach, or a
  /// node's first move, each of which bumps fixed_generation_.
  std::vector<FixedReceivers> fixed_receivers_;
  std::uint64_t fixed_generation_ = 1;
  std::vector<NodeId> mobile_scratch_;    // mobile nodes in a sender's range
  std::vector<NodeId> receiver_scratch_;  // receivers_of's merged result
  std::unordered_map<NodeId, std::vector<PendingArrival>> pending_;
  // A deque: growing it keeps addresses stable, since a receiver's handler
  // may open fan-outs while an earlier one is still delivering.
  std::deque<FanOut> fanouts_;
  std::vector<std::uint32_t> free_fanouts_;
  std::uint64_t batched_pending_ = 0;
  std::uint64_t batched_executed_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t collisions_ = 0;
  std::unique_ptr<chaos::LinkModel> chaos_;  // null unless chaos configured
  std::uint64_t chaos_drops_ = 0;
  std::uint64_t chaos_duplicates_ = 0;
  std::uint64_t chaos_jams_ = 0;
};

}  // namespace sensrep::net
