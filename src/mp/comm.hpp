// Rank-local handle to the in-process message-passing runtime.
//
// A Comm is what MPI_COMM_WORLD is to an MPI program: it knows this rank's
// id, the world size, and provides point-to-point send/recv. Collective
// operations are free-function templates in mp/collectives.hpp built on top
// of these primitives.
//
// Tag discipline: user-level point-to-point uses non-negative tags chosen by
// the caller; collectives draw from a private, strictly decreasing negative
// tag sequence advanced identically on every rank (SPMD), so messages from
// distinct operations can never be confused even if one rank runs far ahead
// of another (sends are buffered and never block).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "mp/costmodel.hpp"
#include "mp/message.hpp"
#include "mp/metrics.hpp"
#include "mp/stats.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::mp {

class Hub;  // defined in runtime.hpp

template <typename T>
concept WireType = std::is_trivially_copyable_v<T>;

class Comm {
 public:
  Comm(Hub& hub, int rank, const CostModel& model,
       util::MemoryMeter* meter = nullptr);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const;
  bool is_root() const { return rank_ == 0; }
  const CostModel& model() const { return model_; }

  // --- point to point ------------------------------------------------------
  // The transport is zero-copy: a Payload moves through the mailbox intact,
  // so a moved-in send plus a same-typed recv never duplicates the bytes.
  void send_payload(int dst, std::int64_t tag, Payload payload);
  Payload recv_payload(int src, std::int64_t tag);

  void send_bytes(int dst, std::int64_t tag, std::span<const std::byte> bytes) {
    send_payload(dst, tag, Payload::copy_of(bytes));
  }
  std::vector<std::byte> recv_bytes(int src, std::int64_t tag) {
    return recv_payload(src, tag).take<std::byte>();
  }

  // Fault-injection checkpoint at a level boundary of the induction loop:
  // throws InjectedFault if the run's FaultPlan kills this rank there.
  void fault_level_boundary(int level);

  // Progress watermark for the gray-failure subsystem: the induction
  // engines call this at phase/level boundaries so the health registry can
  // tell slow-but-progressing from stuck. No-op when health monitoring is
  // off.
  void publish_watermark(int level);

  // Communication operations (sends + receives) performed by this rank so
  // far; the unit in which op-triggered faults are addressed (1-based).
  std::int64_t comm_ops() const { return comm_ops_; }

  // Elastic grow (see join_handshake in mp/runtime.hpp): the previous
  // attempt's world size from RunOptions (0 on a normal run), and the
  // hub-level record that a joiner passed the capability exchange.
  int prior_world() const;
  void admit_joiner(int rank);

  template <WireType T>
  void send(int dst, std::int64_t tag, std::span<const T> values) {
    send_bytes(dst, tag, std::as_bytes(values));
  }
  // Move-send: the vector's buffer travels through the mailbox unchanged and
  // a matching recv<T> reclaims it without copying.
  template <WireType T>
  void send(int dst, std::int64_t tag, std::vector<T>&& values) {
    send_payload(dst, tag, Payload::adopt(std::move(values)));
  }
  template <WireType T>
  void send_value(int dst, std::int64_t tag, const T& value) {
    send(dst, tag, std::span<const T>(&value, 1));
  }
  template <WireType T>
  std::vector<T> recv(int src, std::int64_t tag) {
    return recv_payload(src, tag).take<T>();
  }
  template <WireType T>
  T recv_value(int src, std::int64_t tag) {
    return recv<T>(src, tag).at(0);
  }

  // --- modeled time and accounting -----------------------------------------
  // Advances this rank's virtual clock by `units` work units (one unit = one
  // record-field visit; see CostModel). With CostModel::realize_work the
  // modeled duration is also slept for real (accumulated and settled in
  // bounded chunks so per-record calls stay cheap); an injected `slow` fault
  // multiplies the realized — never the virtual — duration.
  void add_work(double units) {
    vtime_ += units * model_.seconds_per_work_unit;
    stats_.work_units += units;
    if (model_.realize_work) {
      realize_debt_s_ += units * model_.seconds_per_work_unit * slow_factor_;
      if (realize_debt_s_ >= 1e-3) settle_realized_work();
    }
  }
  double vtime() const { return vtime_; }
  void set_vtime(double t) { vtime_ = t; }

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }
  util::MemoryMeter* meter() const { return meter_; }

  // --- transport health telemetry ------------------------------------------
  // Cheap member counters updated on the send/recv hot paths; run_ranks
  // absorbs them into the rank's MetricsSnapshot when the rank finishes
  // (comm.message_bytes, transport.backoff_waits/heals,
  // runtime.deadlock_probes families).
  const Histogram& message_bytes_histogram() const {
    return message_bytes_hist_;
  }
  std::uint64_t backoff_waits() const { return backoff_waits_; }
  std::uint64_t heals() const { return heals_; }
  std::uint64_t deadlock_probes() const { return deadlock_probes_; }

  // Gray-failure telemetry (health.* metric family; zero/empty when health
  // monitoring is off).
  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  const Histogram& suspicion_histogram() const { return suspicion_hist_; }
  const Histogram& watermark_lag_histogram() const {
    return watermark_lag_hist_;
  }
  double adaptive_timeout_max_s() const { return adaptive_timeout_max_s_; }

  // RAII: this rank is busy in local disk I/O (a checkpoint write or
  // restore) and stamps no heartbeats while a write blocks in fsync. While
  // the scope is open HealthRegistry::alive reports the rank alive, so a
  // peer waiting on it stretches its adaptive receive deadline instead of
  // escalating to RecvTimeout; the fixed recv_timeout_s ceiling still
  // bounds a hung disk. No-op unless health monitoring is on.
  class IoScope {
   public:
    explicit IoScope(Comm& comm) : comm_(comm) { comm_.set_in_io(true); }
    ~IoScope() { comm_.set_in_io(false); }
    IoScope(const IoScope&) = delete;
    IoScope& operator=(const IoScope&) = delete;

   private:
    Comm& comm_;
  };

  // Tag source for collectives; advanced identically on all ranks.
  std::int64_t next_collective_tag() { return --collective_tag_; }

  // RAII attribution of point-to-point traffic to a collective class.
  class OpScope {
   public:
    OpScope(Comm& comm, CommOp op) : comm_(comm), saved_(comm.current_op_) {
      comm_.current_op_ = op;
      comm_.stats_.record_call(op);
    }
    ~OpScope() { comm_.current_op_ = saved_; }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Comm& comm_;
    CommOp saved_;
  };

 private:
  // Advances the op counter and applies any op-triggered faults (kill,
  // delay) for this rank, stamps this rank's heartbeat lane, and pays the
  // per-op wall pause of an injected slow fault. Returns the 1-based index
  // of the operation.
  std::int64_t begin_op(const char* what);
  // Sleeps off the accumulated realized-work debt in bounded chunks,
  // heartbeating between chunks so a throttled rank stays visibly alive.
  void settle_realized_work();
  // Stamp this rank's heartbeat lane (no-op when monitoring is off).
  void heartbeat();
  // IoScope's bracket (no-op when monitoring is off).
  void set_in_io(bool in_io);
  // One straggler-evidence probe, called from an expired receive slice.
  // Throws StragglerDetected once the evidence has been sustained.
  void straggler_probe(int src, std::int64_t tag);

  Hub& hub_;
  int rank_;
  CostModel model_;
  util::MemoryMeter* meter_;
  CommStats stats_;
  Histogram message_bytes_hist_;
  std::uint64_t backoff_waits_ = 0;     // retransmit-timer expiries in recv
  std::uint64_t heals_ = 0;             // retransmits/nacks this rank drove
  std::uint64_t deadlock_probes_ = 0;   // deadlock_diagnostic consultations
  double vtime_ = 0.0;
  std::int64_t collective_tag_ = 0;
  std::int64_t comm_ops_ = 0;
  CommOp current_op_ = CommOp::kPointToPoint;

  // --- gray-failure state (all accessed only by this rank's thread) ----
  bool health_monitoring_ = false;   // cached RunOptions::health.monitoring()
  bool detect_stragglers_ = false;
  bool adaptive_timeouts_ = false;
  double slow_factor_ = 1.0;         // injected slow fault; 1 = healthy
  double realize_debt_s_ = 0.0;      // realized work not yet slept off
  std::uint64_t heartbeats_sent_ = 0;
  Histogram suspicion_hist_;         // phi x100 per straggler probe
  Histogram watermark_lag_hist_;     // watermark spread per straggler probe
  double adaptive_timeout_max_s_ = 0.0;
  // Straggler evidence, persisted across receives: the suspect under
  // sustained observation and when the evidence window opened.
  int straggler_suspect_ = -1;
  std::chrono::steady_clock::time_point straggler_since_{};
};

}  // namespace scalparc::mp
