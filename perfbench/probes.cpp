#include "probes.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dear/tag_codec.hpp"
#include "net/sim_network.hpp"
#include "reactor/event_queue.hpp"
#include "reactor/runtime.hpp"
#include "sim/kernel.hpp"
#include "someip/message.hpp"
#include "someip/timestamp_bypass.hpp"
#include "stats.hpp"

namespace dear::perfbench {

namespace {

constexpr int kBatches = 15;
/// Upper bound on any wait for an asynchronous delivery.
constexpr auto kWaitDeadline = std::chrono::seconds(5);

/// ns/op of the fastest of kBatches timed batches of `ops` operations,
/// after one untimed warm-up batch (the same host-noise filter as the
/// end-to-end statistics). `batch(ops)` returns false when it failed.
template <typename Batch>
double ns_per_op(std::size_t ops, Batch&& batch, bool& ok) {
  ok = batch(ops);
  std::vector<double> samples;
  for (int b = 0; ok && b < kBatches; ++b) {
    const auto start = Clock::now();
    ok = batch(ops);
    samples.push_back(seconds_since(start) * 1e9 / static_cast<double>(ops));
  }
  return quantile(std::move(samples), 0.0);
}

/// Spins (yielding) until `done()` holds or the deadline passes.
template <typename Done>
bool wait_until(Done&& done) {
  const auto deadline = Clock::now() + kWaitDeadline;
  while (!done()) {
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

/// Keeps a probe's results observable so the timed calls are not elided.
std::atomic<std::uint64_t> g_sink{0};

double probe_event_queue(std::size_t depth, bool& ok) {
  // EventQueue stores and compares action pointers and never dereferences
  // them, so distinct addresses inside one buffer stand in for actions.
  alignas(std::max_align_t) static std::byte storage[64 * 64];
  const auto action = [](std::size_t i) {
    return reinterpret_cast<reactor::BaseAction*>(storage + 64 * (i % 64));
  };
  reactor::EventQueue queue;
  TimePoint next = 1;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.insert(action(i), reactor::Tag{next++, 0});
  }
  std::vector<reactor::BaseAction*> popped;
  return ns_per_op(
      200'000,
      [&](std::size_t ops) {
        for (std::size_t i = 0; i < ops; ++i) {
          queue.insert(action(i), reactor::Tag{next++, 0});
          (void)queue.pop_at(queue.earliest(), popped);
        }
        g_sink.fetch_add(popped.size(), std::memory_order_relaxed);
        return true;
      },
      ok);
}

// A DES-driven reactor chain: a self-rescheduling source, `relays` relays
// and a sink, so every tag runs relays + 2 reactions.
class ChainSource final : public reactor::Reactor {
 public:
  reactor::Output<std::int64_t> out{"out", this};

  ChainSource(reactor::Environment& environment, std::int64_t limit)
      : reactor::Reactor("source", environment), limit_(limit) {
    add_reaction("kick", [this] { tick_.schedule(reactor::Empty{}); }).triggered_by(startup_);
    add_reaction("emit",
                 [this] {
                   out.set(count_);
                   if (++count_ < limit_) {
                     tick_.schedule(reactor::Empty{});
                   } else {
                     request_shutdown();
                   }
                 })
        .triggered_by(tick_)
        .writes(out);
  }

 private:
  reactor::StartupTrigger startup_{"startup", this};
  reactor::LogicalAction<reactor::Empty> tick_{"tick", this};
  std::int64_t limit_;
  std::int64_t count_{0};
};

class ChainRelay final : public reactor::Reactor {
 public:
  reactor::Input<std::int64_t> in{"in", this};
  reactor::Output<std::int64_t> out{"out", this};

  ChainRelay(reactor::Environment& environment, std::string name)
      : reactor::Reactor(std::move(name), environment) {
    add_reaction("relay", [this] { out.set(in.get() + 1); }).triggered_by(in).writes(out);
  }
};

class ChainSink final : public reactor::Reactor {
 public:
  reactor::Input<std::int64_t> in{"in", this};
  std::int64_t sum{0};

  explicit ChainSink(reactor::Environment& environment)
      : reactor::Reactor("sink", environment) {
    add_reaction("consume", [this] { sum += in.get(); }).triggered_by(in);
  }
};

/// Runs one chain of `events` tags; returns the kernel events it took.
std::uint64_t run_chain(std::size_t relays, std::int64_t events) {
  sim::Kernel kernel;
  reactor::SimClock clock(kernel);
  reactor::Environment environment(clock);
  ChainSource source(environment, events);
  std::vector<std::unique_ptr<ChainRelay>> chain;
  reactor::Output<std::int64_t>* previous = &source.out;
  for (std::size_t i = 0; i < relays; ++i) {
    chain.push_back(std::make_unique<ChainRelay>(environment, "relay" + std::to_string(i)));
    environment.connect(*previous, chain.back()->in);
    previous = &chain.back()->out;
  }
  ChainSink sink(environment);
  environment.connect(*previous, sink.in);
  reactor::SimDriver driver(environment, kernel, common::Rng(1));
  driver.start();
  kernel.run();
  g_sink.fetch_add(static_cast<std::uint64_t>(sink.sum), std::memory_order_relaxed);
  return kernel.events_processed();
}

/// Splits the scheduler's cost into a per-tag and a per-reaction part by
/// timing two chain lengths (3 and 7 reactions per tag).
void probe_reactor(double& tag_ns, double& reaction_ns, double& kernel_events_per_tag,
                   bool& ok) {
  constexpr std::int64_t kEvents = 20'000;
  std::uint64_t kernel_events = 0;
  const auto chain_ns = [&](std::size_t relays) {
    return ns_per_op(
        static_cast<std::size_t>(kEvents),
        [&](std::size_t ops) {
          kernel_events = run_chain(relays, static_cast<std::int64_t>(ops));
          return kernel_events > 0;
        },
        ok);
  };
  const double short_chain = chain_ns(1);
  const double long_chain = ok ? chain_ns(5) : 0.0;
  reaction_ns = std::max(0.0, (long_chain - short_chain) / 4.0);
  tag_ns = std::max(0.0, short_chain - 3.0 * reaction_ns);
  kernel_events_per_tag = static_cast<double>(kernel_events) / static_cast<double>(kEvents);
}

double probe_tag_codec(bool& ok) {
  return ns_per_op(
      1'000'000,
      [](std::size_t ops) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < ops; ++i) {
          const reactor::Tag tag{static_cast<TimePoint>(i), static_cast<std::uint32_t>(i & 7)};
          const reactor::Tag back = transact::from_wire(transact::to_wire(tag));
          sum += static_cast<std::uint64_t>(back.time) + back.microstep;
        }
        g_sink.fetch_add(sum, std::memory_order_relaxed);
        return true;
      },
      ok);
}

someip::Message sample_message(std::size_t payload_bytes) {
  someip::Message message;
  message.service = 0x1234;
  message.method = 0x8001;
  message.client = 0x21;
  message.type = someip::MessageType::kNotification;
  message.payload.assign(payload_bytes, 0xA5);
  message.tag = someip::WireTag{123'456'789, 2};
  return message;
}

void probe_codec(std::size_t payload_bytes, double& encode_ns, double& decode_ns, bool& ok) {
  someip::Message message = sample_message(payload_bytes);
  std::vector<std::uint8_t> wire;
  encode_ns = ns_per_op(
      200'000,
      [&](std::size_t ops) {
        for (std::size_t i = 0; i < ops; ++i) {
          message.session = static_cast<someip::SessionId>(i);
          message.encode_into(wire);
        }
        g_sink.fetch_add(wire.size(), std::memory_order_relaxed);
        return true;
      },
      ok);
  if (!ok) {
    return;
  }
  someip::Message decoded;
  decode_ns = ns_per_op(
      200'000,
      [&](std::size_t ops) {
        bool all = true;
        for (std::size_t i = 0; i < ops; ++i) {
          all &= someip::Message::decode_into(wire.data(), wire.size(), decoded);
        }
        g_sink.fetch_add(decoded.payload.size(), std::memory_order_relaxed);
        return all;
      },
      ok);
}

double probe_bypass(bool& ok) {
  someip::TimestampBypass bypass;
  return ns_per_op(
      500'000,
      [&](std::size_t ops) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < ops; ++i) {
          bypass.deposit(someip::WireTag{static_cast<std::int64_t>(i), 0});
          const auto tag = bypass.collect();
          sum += tag.has_value() ? static_cast<std::uint64_t>(tag->time) : 0;
        }
        g_sink.fetch_add(sum, std::memory_order_relaxed);
        return true;
      },
      ok);
}

/// Latency draws shaped like the service links (5-50 us), cycled so the
/// kernel heap sees reordering.
std::array<Duration, 64> link_delays() {
  std::array<Duration, 64> delays{};
  common::Rng rng(0x5EED);
  for (Duration& delay : delays) {
    delay = rng.uniform_duration(5 * kMicrosecond, 50 * kMicrosecond);
  }
  return delays;
}

double probe_kernel_event(bool& ok) {
  // A fixed number of self-rescheduling event chains keeps the heap at a
  // steady depth: every dispatch schedules its successor.
  constexpr std::size_t kChains = 16;
  struct Chain {
    sim::Kernel* kernel;
    const std::array<Duration, 64>* delays;
    std::uint64_t* remaining;
    std::size_t next;
    void fire() {
      if (*remaining == 0) {
        return;
      }
      --*remaining;
      kernel->schedule_after((*delays)[next++ & 63], [this] { fire(); });
    }
  };
  const std::array<Duration, 64> delays = link_delays();
  sim::Kernel kernel;
  std::uint64_t remaining = 0;
  std::vector<Chain> chains(kChains, Chain{&kernel, &delays, &remaining, 0});
  for (std::size_t c = 0; c < kChains; ++c) {
    chains[c].next = c;
  }
  return ns_per_op(
      200'000,
      [&](std::size_t ops) {
        remaining = ops;
        for (Chain& chain : chains) {
          chain.fire();
        }
        kernel.run();
        g_sink.fetch_add(kernel.events_processed(), std::memory_order_relaxed);
        return remaining == 0;
      },
      ok);
}

double probe_packet(std::size_t packet_bytes, bool& ok) {
  sim::Kernel kernel;
  net::SimNetwork network(kernel, common::Rng(0x5EED));
  net::LinkParams link;
  link.latency = sim::ExecTimeModel::uniform(5 * kMicrosecond, 50 * kMicrosecond);
  network.set_loopback_link(link);
  constexpr net::Endpoint kFrom{2, 1};
  constexpr net::Endpoint kTo{2, 2};
  std::uint64_t delivered = 0;
  network.bind(kTo, [&delivered](const net::Packet&) { ++delivered; });
  return ns_per_op(
      100'000,
      [&](std::size_t ops) {
        const std::uint64_t before = delivered;
        for (std::size_t i = 0; i < ops; ++i) {
          std::vector<std::uint8_t> payload = common::BufferPool::instance().acquire(packet_bytes);
          payload.resize(packet_bytes);
          network.send(kFrom, kTo, std::move(payload));
          kernel.run();
        }
        return delivered - before == ops;
      },
      ok);
}

double probe_buffer_roundtrip(std::size_t bytes, bool& ok) {
  common::BufferPool& pool = common::BufferPool::instance();
  return ns_per_op(
      500'000,
      [&](std::size_t ops) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < ops; ++i) {
          std::vector<std::uint8_t> buffer = pool.acquire(bytes);
          sum += buffer.capacity();
          pool.release(std::move(buffer));
        }
        g_sink.fetch_add(sum, std::memory_order_relaxed);
        return true;
      },
      ok);
}

double probe_slab_loan(std::size_t bytes, bool& ok) {
  common::BufferPool& pool = common::BufferPool::instance();
  return ns_per_op(
      100'000,
      [&](std::size_t ops) {
        bool all = true;
        for (std::size_t i = 0; i < ops; ++i) {
          common::LoanedBuffer slab = pool.loan(bytes);
          all &= static_cast<bool>(slab);
          if (slab) {
            slab.data()[0] = static_cast<std::uint8_t>(i);
            slab.publish(bytes);
          }
        }
        return all;
      },
      ok);
}

/// LocalBinding notify -> subscriber handler. Subscription changes and
/// deliveries are awaited with deadlines; a timeout fails the probe and
/// dumps the binding counters.
double probe_local_notify(std::size_t payload_bytes, bool& ok) {
  constexpr someip::ServiceId kService = 0x0B0E;
  constexpr someip::EventId kEvent = 0x8001;
  constexpr net::Endpoint kServerEp{1, 100};
  constexpr net::Endpoint kClientEp{2, 200};

  common::ThreadPoolExecutor executor(1);  // timeout synthesis and contended drains
  ara::com::LocalHub hub;
  ara::com::LocalBinding server(hub, executor, kServerEp, 0x01);
  ara::com::LocalBinding client(hub, executor, kClientEp, 0x02);
  std::atomic<std::uint64_t> received{0};
  std::uint64_t sent = 0;
  const std::vector<std::uint8_t> staging(payload_bytes, 0x5A);

  const auto dump = [&](const char* stage) {
    const ara::com::TransportStats stats = server.stats();
    std::fprintf(stderr,
                 "perfbench: local notify probe timed out (%s): sent %llu received %llu "
                 "subscribers %zu server notifications_sent %llu\n",
                 stage, static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(received.load()),
                 server.subscriber_count(kService, kEvent),
                 static_cast<unsigned long long>(stats.notifications_sent));
  };

  double ns = 0.0;
  client.subscribe(kServerEp, kService, kEvent, [&received](const someip::Message&) {
    received.fetch_add(1, std::memory_order_release);
  });
  ok = wait_until([&] { return server.subscriber_count(kService, kEvent) == 1; });
  if (!ok) {
    dump("subscribe");
  } else {
    ns = ns_per_op(
        100'000,
        [&](std::size_t ops) {
          for (std::size_t i = 0; i < ops; ++i) {
            server.notify(kService, kEvent, staging);
          }
          sent += ops;
          if (!wait_until([&] { return received.load(std::memory_order_acquire) >= sent; })) {
            dump("delivery");
            return false;
          }
          return true;
        },
        ok);
  }
  // The unsubscribe must land before anything subscribes again.
  client.unsubscribe(kServerEp, kService, kEvent);
  if (!wait_until([&] { return server.subscriber_count(kService, kEvent) == 0; })) {
    dump("unsubscribe");
    ok = false;
  }
  executor.drain();
  return ns;
}

}  // namespace

ProbeCosts run_probes(const ProbeInputs& inputs) {
  ProbeCosts costs;
  bool ok = true;
  const auto tally = [&costs, &ok] {
    ++costs.probes;
    costs.probes_failed += ok ? 0 : 1;
    ok = true;
  };
  costs.event_queue_ns = probe_event_queue(inputs.event_queue_depth, ok);
  tally();
  probe_reactor(costs.tag_ns, costs.reaction_ns, costs.tag_kernel_events, ok);
  tally();
  costs.tag_codec_ns = probe_tag_codec(ok);
  tally();
  probe_codec(inputs.someip_payload_bytes, costs.encode_ns, costs.decode_ns, ok);
  tally();
  costs.bypass_ns = probe_bypass(ok);
  tally();
  costs.kernel_event_ns = probe_kernel_event(ok);
  tally();
  costs.packet_ns = probe_packet(inputs.packet_bytes, ok);
  tally();
  costs.buffer_roundtrip_ns = probe_buffer_roundtrip(inputs.packet_bytes, ok);
  tally();
  costs.slab_loan_ns = probe_slab_loan(inputs.slab_bytes, ok);
  tally();
  costs.local_notify_ns = probe_local_notify(inputs.local_payload_bytes, ok);
  tally();
  return costs;
}

}  // namespace dear::perfbench
