// Unit-cost probes behind the per-frame cost ledger.
//
// Each probe times one public entry point of a layer in isolation, with
// inputs sized from the traced run of the workload it explains (message
// bytes, queue depth, slab size). A ledger row is then
//   (operations per frame, counted by the obs registry) x (probe ns/op),
// and the rows are summed against the measured host ns per frame.
//
// Every probe repeats its timed batch and reports the fastest batch in
// ns/op. Waits for asynchronous deliveries carry a deadline: a probe
// that times out counts as failed and dumps its counters to stderr
// instead of spinning.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dear::perfbench {

/// Inputs matched to one workload's traced mix.
struct ProbeInputs {
  /// Mean SOME/IP payload bytes per message (encoded size minus header
  /// and tag trailer); 0 when the workload sent no SOME/IP traffic.
  std::size_t someip_payload_bytes{0};
  /// Mean wire bytes per network packet.
  std::size_t packet_bytes{64};
  /// Peak reactor event-queue depth observed in the traced run.
  std::size_t event_queue_depth{8};
  /// Loaned slab size (the camera payload, or the smallest slab class).
  std::size_t slab_bytes{64 * 1024};
  /// Payload bytes per LocalBinding notification.
  std::size_t local_payload_bytes{64};
};

/// ns per operation of each probe.
struct ProbeCosts {
  double event_queue_ns{0};      // EventQueue insert + pop_at
  /// DES-driven reactor chain, split into the scheduler's cost per tag
  /// (event queue, level staging, SimDriver wake-ups) and per reaction; the
  /// chain's kernel events per tag let the ledger keep those in the sim
  /// row.
  double tag_ns{0};
  double reaction_ns{0};
  double tag_kernel_events{0};
  double tag_codec_ns{0};        // transact::to_wire + from_wire
  double encode_ns{0};           // someip::Message::encode_into
  double decode_ns{0};           // someip::Message::decode_into
  double bypass_ns{0};           // TimestampBypass deposit + collect
  double packet_ns{0};           // SimNetwork send -> deliver (incl. one kernel event)
  double kernel_event_ns{0};     // sim::Kernel schedule_after + dispatch
  double buffer_roundtrip_ns{0}; // BufferPool acquire + release
  double slab_loan_ns{0};        // BufferPool loan + publish + release
  double local_notify_ns{0};     // LocalBinding notify -> subscriber handler
  /// Probes run, and probes that hit a wait deadline (each one a failed
  /// operation of the traced run).
  std::uint64_t probes{0};
  std::uint64_t probes_failed{0};
};

[[nodiscard]] ProbeCosts run_probes(const ProbeInputs& inputs);

}  // namespace dear::perfbench
