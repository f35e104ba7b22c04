// In-process control-plane transport.
//
// SUBSTITUTION (DESIGN.md §2): the paper's CServs talk gRPC-over-QUIC;
// here a message bus routes *serialized* Colibri packets between the
// CServs of a simulation, hop by hop. Requests are synchronous chains —
// the request recursion walking down the path and the response
// propagating back on unwind mirrors the RPC call chain, and every hop
// pays real encode/decode cost so the control-plane benchmarks include
// serialization like the paper's do.
//
// Telemetry: every call records the wall time spent in the destination's
// handler — which, for a chained request, includes all downstream hops —
// into the "bus.hop_latency_ns" histogram. Enabling the SpanCollector
// additionally captures the full nested forward/unwind span tree of a
// request (per-hop latency via SpanTrace::self_time_ns); when disabled,
// tracing costs one predictable branch per call.
// Distributed tracing: each bus delivery carries (or is assigned) a
// proto::TraceContext — 128-bit trace id, per-hop span id, parent span
// id — so the spans recorded at every AS stitch into one causal tree
// (telemetry::TraceAssembler). Context ids are generated from the
// initiator's Clock reading and per-bus sequence counters, never from
// wall-clock randomness, keeping SimClock runs and the twin-universe
// differential tests bit-reproducible.
#pragma once

#include <chrono>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colibri/common/bytes.hpp"
#include "colibri/common/faults.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/proto/packet.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/trace.hpp"

namespace colibri::cserv {

// Point-in-time view of the bus counters (see snapshot()).
struct BusStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class MessageBus : public telemetry::MetricsSource {
 public:
  // A handler consumes a serialized request packet and returns the
  // serialized response packet.
  using Handler = std::function<Bytes(BytesView)>;

  // Registers with `registry` (nullptr = none); metrics export under
  // "bus.*".
  explicit MessageBus(telemetry::MetricsRegistry* registry =
                          &telemetry::MetricsRegistry::global())
      : registration_(registry, this) {}
  ~MessageBus() override = default;

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  void attach(AsId as, Handler handler) { handlers_[as] = std::move(handler); }
  void detach(AsId as) { handlers_.erase(as); }

  bool reachable(AsId as) const { return handlers_.contains(as); }

  // Delivers a request to `dst` and returns its response. Empty response
  // means the destination is unreachable or refused to answer. When
  // tracing is enabled, the trace context is peeked out of kChanPacket
  // frames (or derived from the caller's context for auxiliary channels
  // like key fetches) and installed as the current context for the
  // duration of the handler, so nested forwards chain causally.
  Bytes call(AsId dst, BytesView request);

  // --- fault injection (chaos tests) -----------------------------------
  // With an injector attached, every call() asks for a verdict first:
  // dropped requests return an empty response (indistinguishable from an
  // unreachable peer), duplicated requests invoke the handler twice, and
  // delayed requests are queued until deliver_delayed(). The injector
  // must outlive the bus (or be detached with nullptr).
  void attach_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Pumps the delayed queue: each queued request is delivered late as a
  // one-way message (its response is discarded — the original caller
  // already saw a timeout), in send order, after every message sent
  // since the delay — which is exactly a reorder. Requests delayed again
  // during the pump stay queued for the next call. Returns the number
  // replayed.
  std::size_t deliver_delayed();
  std::size_t delayed_pending() const { return delayed_.size(); }

  // Span tracing (see telemetry/trace.hpp): enable, run a request, take.
  telemetry::SpanCollector& tracer() { return tracer_; }
  bool tracing_active() const { return tracer_.enabled(); }

  // --- distributed-tracing context -------------------------------------
  // Context of the request currently being delivered (absent outside a
  // traced delivery).
  const proto::TraceContext& current_context() const { return current_ctx_; }
  // Starts a fresh sampled trace for a request originated on this bus.
  // `now_ns` is the initiator's Clock reading: mixed into the trace id so
  // distinct SimClock scenarios get distinct ids while identical runs
  // reproduce identical traces. Returns a zeroed context when tracing is
  // off — propagation then costs nothing on the wire.
  proto::TraceContext new_root_context(std::int64_t now_ns);
  // Child of the current context (same trace, fresh span id, parent =
  // current span); zeroed when there is no current context.
  proto::TraceContext child_context();
  // Swaps the current context (used by CServ::request, which processes
  // hop 0 inline without a bus call); returns the previous one.
  proto::TraceContext exchange_context(const proto::TraceContext& ctx) {
    proto::TraceContext prev = current_ctx_;
    current_ctx_ = ctx;
    return prev;
  }

  // Uniform stats accessors: consistent point-in-time view + reset.
  BusStats snapshot() const { return {messages_.value(), bytes_.value()}; }
  void reset() {
    messages_.reset();
    bytes_.reset();
    hop_latency_ns_.reset();
  }

  void collect_metrics(telemetry::MetricSink& sink) const override {
    sink.counter("bus.messages", messages_.value());
    sink.counter("bus.bytes", bytes_.value());
    const auto latency = hop_latency_ns_.snapshot();
    if (latency.count != 0) sink.histogram("bus.hop_latency_ns", latency);
    if (faults_ != nullptr) {
      sink.counter("bus.fault.dropped", faults_dropped_.value());
      sink.counter("bus.fault.duplicated", faults_duplicated_.value());
      sink.counter("bus.fault.delayed", faults_delayed_.value());
      sink.counter("bus.fault.replayed", faults_replayed_.value());
    }
  }

 private:
  static std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint64_t next_span_id();

  // The fault-free delivery path shared by call() and deliver_delayed().
  Bytes deliver(AsId dst, BytesView request);

  std::unordered_map<AsId, Handler> handlers_;
  FaultInjector* faults_ = nullptr;
  std::vector<std::pair<AsId, Bytes>> delayed_;
  telemetry::Counter faults_dropped_;
  telemetry::Counter faults_duplicated_;
  telemetry::Counter faults_delayed_;
  telemetry::Counter faults_replayed_;
  telemetry::Counter messages_;
  telemetry::Counter bytes_;
  telemetry::Histogram hop_latency_ns_;
  telemetry::SpanCollector tracer_;
  proto::TraceContext current_ctx_;
  std::uint64_t trace_seq_ = 0;  // one per new_root_context
  std::uint64_t span_seq_ = 0;   // one per generated span id
  telemetry::ScopedSource registration_;
};

}  // namespace colibri::cserv
