// sci_e2e — end-to-end context-delivery benchmark (bench/e2e/README.md).
//
// Times the whole SCI stack from outside, through the public API of
// core/sci.h, the entity components, range::ContextServer and
// sim::Simulator, on one of four workloads:
//
//   pipeline   op = delivered event; 4 shards × 1 standby, sync_acks=1,
//              durable with ack_after_fsync, acked delivery, leases.
//   firehose   op = delivered event; monolithic range with every optional
//              layer off (no standby, no WAL, raw delivery): fan-out only.
//   query_mix  op = answered query; Zipf "closest printer with paper"
//              queries over materialized views, 10% writes.
//   churn      op = completed registration; a fixed pool of entities
//              cycling arrive → dwell → leave on the pipeline deployment.
//
// Load is open-loop in virtual time: bench-owned sim::PeriodicTimers fire on
// a fixed schedule whatever the system does, and each op's latency runs from
// the instant it was due. Latencies are integer virtual microseconds and go
// into an exact count table. The driver runs its own Simulator::step() loop
// until --seconds of wall time (or --vseconds of virtual time, which makes
// every virtual-time and count metric bit-identical per seed) have passed,
// and measures host throughput in CPU time over 200 ms slices of it.
//
// Usage:
//   sci_e2e --workload <name> --seed <n> [--seconds <wall s>]
//           [--vseconds <virtual s>] [--setups <k>] [--trace <file>]
//           [--lease-ttl-ms <ms>] [--standbys <n>] [--pattern-on home|lead]
//
// The last three reshape the deployment for the defect reproducers in
// README.md; the benchmark itself never passes them.
//
// Prints every metric as `name value unit`, then one JSON line. Op failures
// (lost, duplicate or dead-lettered deliveries, failed or stale queries,
// arrivals that never registered) are counted into failed_op_ratio; only
// harness errors exit non-zero.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <numbers>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/sci.h"
#include "entity/printer.h"
#include "mem/arena.h"

// ---------------------------------------------------------------------------
// Heap audit: replacement global operator new counts every allocation the
// process makes (same idiom as bench/fig2_range_components.cpp), so the
// window's allocations per op cover the sim kernel and acked delivery too.

namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sci;

[[noreturn]] void harness_error(const std::string& what) {
  std::fprintf(stderr, "sci_e2e: %s\n", what.c_str());
  std::exit(1);
}

void require(bool ok, const std::string& what) {
  if (!ok) harness_error(what);
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host CPU time of this (single) thread: what the machine pays, unaffected
// by the time the scheduler gives other processes.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Distributions

// Exact percentiles over integer virtual microseconds: a dense count table
// for the common range plus an ordered overflow map, so memory stays flat
// however many samples arrive.
class LatencyTable {
 public:
  void add(std::int64_t us) {
    ++count_;
    if (us < 0) us = 0;
    if (us < kDense) {
      ++dense_[static_cast<std::size_t>(us)];
    } else {
      ++overflow_[us];
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  // Nearest-rank percentile: the smallest value with at least ceil(p·n)
  // samples at or below it. 0 when empty.
  [[nodiscard]] std::int64_t percentile(double p) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      seen += dense_[i];
      if (seen >= rank) return static_cast<std::int64_t>(i);
    }
    for (const auto& [value, n] : overflow_) {
      seen += n;
      if (seen >= rank) return value;
    }
    return overflow_.empty() ? 0 : overflow_.rbegin()->first;
  }

 private:
  static constexpr std::int64_t kDense = std::int64_t{1} << 18;  // 262 ms
  std::vector<std::uint64_t> dense_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kDense), 0);
  std::map<std::int64_t, std::uint64_t> overflow_;
  std::uint64_t count_ = 0;
};

// Log-linear histogram for host nanoseconds (per-layer metrics): exact below
// 128, then 64 sub-buckets per power of two (< 1.6% relative error).
class LogHist {
 public:
  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++count_;
  }
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kBuckets = 128 + 57 * 64;
  static std::size_t index(std::uint64_t v) {
    if (v < 128) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= 7
    const std::uint64_t m = v >> (e - 6);    // [64, 128)
    return 128 + static_cast<std::size_t>(e - 7) * 64 +
           static_cast<std::size_t>(m - 64);
  }
  static double midpoint(std::size_t i) {
    if (i < 128) return static_cast<double>(i);
    const std::size_t e = (i - 128) / 64 + 7;
    const std::uint64_t m = (i - 128) % 64 + 64;
    const double lo = static_cast<double>(m << (e - 6));
    const double width = static_cast<double>(std::uint64_t{1} << (e - 6));
    return lo + width / 2.0;
  }
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing (--trace): spans around every Simulator::step() of the driver's
// loop and around the driver's calls into the stack. Each step is one task,
// so steps never nest; a step is attributed to the first layer, in the order
// persist → replicate → compose → range → reliable → entity, whose registry
// counters moved while it ran (entity: a bench component callback or driver
// call ran inside it), else to sim. The counter table is frozen in
// README.md.

enum class Layer : std::uint8_t {
  kPersist,
  kReplicate,
  kCompose,
  kRange,
  kReliable,
  kEntity,
  kSim,
  kCount
};

enum class SpanKind : std::uint8_t {
  kStep,
  kPublish,
  kSubmitQuery,
  kSubscribePattern,
  kEnroll,
  kArrive,
  kWrite,
};

// On-disk record (README.md "Trace file"): little-endian, 40 bytes.
struct Span {
  std::int64_t start_ns = 0;  // from the start of the traced run
  std::int64_t dur_ns = 0;
  std::int64_t self_ns = 0;   // dur minus child spans
  std::uint64_t op = 0;       // op id shared by every span of one op
  std::uint32_t step = 0;     // traced step ordinal (0 = outside a step)
  std::uint8_t kind = 0;      // SpanKind
  std::uint8_t layer = 0;     // Layer
  std::uint16_t pad = 0;
};
static_assert(sizeof(Span) == 40);

struct LayerCounterSpec {
  Layer layer;
  const char* counter;
};
// The attribution table. Changing it changes every *_ns_per_op metric, so it
// is part of the benchmark definition (README.md).
constexpr LayerCounterSpec kLayerCounters[] = {
    {Layer::kPersist, "persist.flushes"},
    {Layer::kPersist, "persist.checkpoints"},
    {Layer::kReplicate, "repl.records_applied"},
    {Layer::kReplicate, "repl.heartbeats"},
    {Layer::kReplicate, "repl.snapshots"},
    {Layer::kReplicate, "repl.batches"},
    {Layer::kReplicate, "repl.lease.renewals"},
    {Layer::kReplicate, "repl.lease.acks"},
    {Layer::kCompose, "cs.queries.received"},
    {Layer::kCompose, "view.hits"},
    {Layer::kCompose, "view.misses"},
    {Layer::kCompose, "view.invalidations"},
    {Layer::kRange, "cs.events_in"},
    {Layer::kRange, "cs.registrations"},
    {Layer::kRange, "cs.departures"},
    {Layer::kRange, "cs.shard.redirects"},
    {Layer::kRange, "cs.shard.mirror_batches"},
    {Layer::kRange, "em.leases.renewed"},
    {Layer::kRange, "em.leases.expired"},
    {Layer::kReliable, "rel.acked"},
    {Layer::kReliable, "rel.retransmits"},
};
// Counters (all in the table above) whose movement marks a step as a Context
// Server admit (publish, registration or query intake), for range.admit_ns_*.
constexpr const char* kAdmitCounters[] = {"cs.events_in", "cs.registrations",
                                          "cs.queries.received"};

class Tracer {
 public:
  static constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

  Tracer() { spans_.reserve(kSpanCapacity); }

  void bind(obs::MetricsRegistry& metrics) {
    probes_.clear();
    for (const LayerCounterSpec& spec : kLayerCounters) {
      const obs::Counter* c = &metrics.counter(spec.counter);
      const bool admit =
          std::ranges::any_of(kAdmitCounters, [&](const char* name) {
            return std::string_view(name) == spec.counter;
          });
      probes_.push_back(Probe{c, c->value(), spec.layer, admit});
    }
  }

  void set_origin(std::int64_t origin_ns) { origin_ns_ = origin_ns; }

  // Re-reads every probe so movement from untraced slices is not charged to
  // the next traced step.
  void resync() {
    for (Probe& p : probes_) p.last = p.counter->value();
  }

  // Runs one step under a span. Returns false when the simulator had
  // nothing to run before `until`.
  bool step(sim::Simulator& sim, SimTime until, bool& entity_flag,
            std::uint64_t& op) {
    entity_flag = false;
    op = 0;
    child_ns_ = 0;
    ++step_seq_;
    in_step_ = true;
    const std::int64_t t0 = wall_ns();
    const bool ran = sim.step(until);
    const std::int64_t t1 = wall_ns();
    in_step_ = false;
    if (!ran) {
      --step_seq_;
      return false;
    }
    Layer layer = entity_flag ? Layer::kEntity : Layer::kSim;
    bool admit = false;
    for (Probe& p : probes_) {
      const std::uint64_t v = p.counter->value();
      if (v != p.last) {
        p.last = v;
        layer = std::min(layer, p.layer);
        admit = admit || p.admit;
      }
    }
    const std::int64_t dur = t1 - t0;
    const std::int64_t self = std::max<std::int64_t>(0, dur - child_ns_);
    layer_ns_[static_cast<std::size_t>(layer)] += self;
    step_ns_.add(static_cast<std::uint64_t>(dur));
    if (admit) admit_ns_.add(static_cast<std::uint64_t>(dur));
    covered_ns_ += dur;
    record(Span{t0 - origin_ns_, dur, self, op, step_seq_,
                static_cast<std::uint8_t>(SpanKind::kStep),
                static_cast<std::uint8_t>(layer), 0});
    return true;
  }

  // A driver call into the stack (publish, submit_query, ...). Its time is
  // the entity layer's; inside a step it is subtracted from the step's self
  // time.
  void child(SpanKind kind, std::int64_t t0, std::int64_t t1,
             std::uint64_t op) {
    const std::int64_t dur = t1 - t0;
    if (in_step_) child_ns_ += dur;
    layer_ns_[static_cast<std::size_t>(Layer::kEntity)] += dur;
    if (kind == SpanKind::kPublish) {
      publish_ns_.add(static_cast<std::uint64_t>(dur));
    } else if (kind == SpanKind::kSubmitQuery) {
      submit_ns_.add(static_cast<std::uint64_t>(dur));
    }
    record(Span{t0 - origin_ns_, dur, dur, op, in_step_ ? step_seq_ : 0,
                static_cast<std::uint8_t>(kind),
                static_cast<std::uint8_t>(Layer::kEntity), 0});
  }

  [[nodiscard]] std::int64_t layer_ns(Layer layer) const {
    return layer_ns_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t covered_ns() const { return covered_ns_; }
  [[nodiscard]] const LogHist& step_ns() const { return step_ns_; }
  [[nodiscard]] const LogHist& admit_ns() const { return admit_ns_; }
  [[nodiscard]] const LogHist& publish_ns() const { return publish_ns_; }
  [[nodiscard]] const LogHist& submit_ns() const { return submit_ns_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t recorded() const { return spans_.size(); }

  // Window accounting starts fresh; recorded spans (set-up included) stay.
  void reset_totals() {
    layer_ns_.fill(0);
    covered_ns_ = 0;
    step_ns_ = LogHist{};
    admit_ns_ = LogHist{};
    publish_ns_ = LogHist{};
    submit_ns_ = LogHist{};
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const char header[16] = "SCIE2E-TRACE-1\n";
    bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);
    if (ok && !spans_.empty()) {
      ok = std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) ==
           spans_.size();
    }
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Probe {
    const obs::Counter* counter;
    std::uint64_t last;
    Layer layer;
    bool admit;  // one of kAdmitCounters
  };

  void record(const Span& s) {
    if (spans_.size() < kSpanCapacity) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  std::vector<Probe> probes_;
  std::vector<Span> spans_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> layer_ns_{};
  std::int64_t covered_ns_ = 0;
  std::int64_t child_ns_ = 0;
  std::int64_t origin_ns_ = 0;
  std::uint32_t step_seq_ = 0;
  bool in_step_ = false;
  std::uint64_t dropped_ = 0;
  LogHist step_ns_;
  LogHist admit_ns_;
  LogHist publish_ns_;
  LogHist submit_ns_;
};

// ---------------------------------------------------------------------------
// Recorder: what workloads report into while the driver loop runs.

struct Failures {
  std::uint64_t lost = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unexpected = 0;  // deliveries nobody subscribed to
  std::uint64_t dead_letters = 0;
  std::uint64_t failed_queries = 0;
  std::uint64_t stale_queries = 0;
  std::uint64_t failed_registrations = 0;

  [[nodiscard]] std::uint64_t total() const {
    return lost + duplicates + unexpected + dead_letters + failed_queries +
           stale_queries + failed_registrations;
  }
};

class Recorder {
 public:
  // Admit latency: from a reliable send (publish or profile write) to the
  // producer's channel seeing the admit ack. Each tracked component gets a
  // slot; an op is admitted once the channel's ack count reaches the send
  // count it left behind.
  std::size_t admit_slot(const reliable::ChannelStats& stats) {
    slots_.push_back(AdmitSlot{&stats, {}, false});
    return slots_.size() - 1;
  }
  void sent(std::size_t slot, SimTime due) {
    AdmitSlot& s = slots_[slot];
    s.pending.emplace_back(s.stats->accepted, due);
    if (!s.active) {
      s.active = true;
      active_.push_back(slot);
    }
  }

  // Called after every step: cheap unless some channel just took an ack.
  void after_step(SimTime now) {
    const std::uint64_t acked = rel_acked_->value();
    if (acked == last_acked_) return;
    last_acked_ = acked;
    for (std::size_t i = 0; i < active_.size();) {
      AdmitSlot& s = slots_[active_[i]];
      while (!s.pending.empty() && s.stats->acked >= s.pending.front().first) {
        const SimTime due = s.pending.front().second;
        if (in_window) admit.add((now - due).count_micros());
        s.pending.pop_front();
      }
      if (s.pending.empty()) {
        s.active = false;
        active_[i] = active_.back();
        active_.pop_back();
      } else {
        ++i;
      }
    }
  }

  void bind(obs::MetricsRegistry& metrics) {
    rel_acked_ = &metrics.counter("rel.acked");
    last_acked_ = rel_acked_->value();
  }

  // An op completed at `now`; it was due at `due`.
  void op_done(SimTime due, SimTime now, std::uint64_t op) {
    entity_flag = true;
    step_op = op;
    if (!in_window) return;
    ++window_ops;
    latency.add((now - due).count_micros());
  }

  // A bench component callback ran (attributes the step to entity).
  void touched(std::uint64_t op = 0) {
    entity_flag = true;
    if (op != 0) step_op = op;
  }

  // Times a driver call into the stack when tracing.
  template <typename F>
  void driver_call(SpanKind kind, std::uint64_t op, F&& call) {
    entity_flag = true;
    if (tracer == nullptr) {
      call();
      return;
    }
    const std::int64_t t0 = wall_ns();
    call();
    tracer->child(kind, t0, wall_ns(), op);
  }

  bool in_window = false;
  std::uint64_t window_ops = 0;
  LatencyTable latency;
  LatencyTable admit;
  Failures failures;
  std::uint64_t attempted = 0;
  std::uint64_t writes = 0;     // query_mix profile writes in the window
  std::uint64_t publishes = 0;  // pipeline/firehose publishes in the window
  LogHist resolve_ns;           // query_mix: query_outcome().resolve_micros
  Tracer* tracer = nullptr;
  bool entity_flag = false;
  std::uint64_t step_op = 0;

 private:
  struct AdmitSlot {
    const reliable::ChannelStats* stats;
    std::deque<std::pair<std::uint64_t, SimTime>> pending;
    bool active;
  };
  std::vector<AdmitSlot> slots_;
  std::vector<std::size_t> active_;
  const obs::Counter* rel_acked_ = nullptr;
  std::uint64_t last_acked_ = 0;
};

// ---------------------------------------------------------------------------
// Components

class Producer final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;
  const reliable::ChannelStats& rel_stats() { return channel().stats(); }

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"pulse", "", "pulse"}};
  }
};

class Subscriber final : public entity::ContextAwareApp {
 public:
  using Handler = std::function<void(const event::Event&)>;
  Subscriber(net::Network& network, Guid id, std::string name, Handler on)
      : ContextAwareApp(network, id, std::move(name),
                        entity::EntityKind::kSoftware),
        on_(std::move(on)) {}
  int failed_results = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    on_(event);
  }
  void on_query_result(const std::string&, const Error& error,
                       const Value&) override {
    if (!error.ok()) ++failed_results;
  }

 private:
  Handler on_;
};

class QueryApp final : public entity::ContextAwareApp {
 public:
  using Handler =
      std::function<void(const std::string&, const Error&, const Value&)>;
  QueryApp(net::Network& network, Guid id, std::string name, Handler on)
      : ContextAwareApp(network, id, std::move(name),
                        entity::EntityKind::kSoftware),
        on_(std::move(on)) {}

 protected:
  void on_query_result(const std::string& query_id, const Error& error,
                       const Value& result) override {
    on_(query_id, error, result);
  }

 private:
  Handler on_;
};

class User final : public entity::ContextEntity {
 public:
  User(net::Network& network, Guid id, std::string name)
      : ContextEntity(network, id, std::move(name),
                      entity::EntityKind::kPerson) {}
  const reliable::ChannelStats& rel_stats() { return channel().stats(); }
};

class BenchPrinter final : public entity::PrinterCE {
 public:
  using PrinterCE::PrinterCE;
  const reliable::ChannelStats& rel_stats() { return channel().stats(); }
};

class Roamer final : public entity::ContextEntity {
 public:
  Roamer(net::Network& network, Guid id, std::string name,
         std::function<void()> on_registered)
      : ContextEntity(network, id, std::move(name),
                      entity::EntityKind::kDevice),
        on_registered_(std::move(on_registered)) {}
  const reliable::ChannelStats& rel_stats() { return channel().stats(); }

 protected:
  void on_registered() override { on_registered_(); }

 private:
  std::function<void()> on_registered_;
};

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15.0;    // wall window
  double vseconds = 0.0;    // > 0: fixed virtual window instead
  unsigned setups = 5;
  std::string trace_path;
  std::optional<std::int64_t> lease_ttl_ms;
  std::optional<unsigned> standbys;
  // Install wildcard subscriptions through the lead shard instead of each
  // subscriber's home shard.
  bool pattern_on_lead = false;
};

class Workload {
 public:
  static constexpr std::int64_t kSettleLimitNs = 120'000'000'000;

  virtual ~Workload() = default;
  // Builds the deployment, starts the load generators and warms up.
  virtual void setup() = 0;
  // Virtual time to let in-flight ops settle before the oracles run.
  [[nodiscard]] virtual Duration drain() const = 0;
  // Oracle verdicts into recorder().failures / attempted.
  virtual void finish() {}
  // Primaries whose replication lag is sampled.
  [[nodiscard]] virtual std::vector<range::ContextServer*> primaries() = 0;

  [[nodiscard]] Sci& sci() { return *sci_; }
  [[nodiscard]] Recorder& recorder() { return rec_; }

  // Stops the generators at the end of the window.
  void stop_load() {
    for (auto& t : timers_) t->stop();
  }

  // Runs the simulator for `d` of virtual time through the recorder-aware
  // loop (admit tracking stays exact during warm-up and drain).
  void run_virtual(Duration d) {
    sim::Simulator& sim = sci_->simulator();
    const SimTime until = sim.now() + d;
    const std::int64_t give_up = wall_ns() + kSettleLimitNs;
    while (sim.step(until)) {
      rec_.after_step(sim.now());
      if (wall_ns() > give_up) harness_error("the simulation stalled");
    }
    sci_->run_for(until - sim.now());
  }

 protected:
  explicit Workload(const Options& options)
      : options_(options), rng_(options.seed ^ 0x5EEDBE7C4ULL) {}

  void start_sci() {
    sci_ = std::make_unique<Sci>(options_.seed);
    rec_.bind(sci_->metrics());
  }

  // Periodic open-loop generator with a phase offset: first fires at
  // now + phase, then every period. Owned by the workload.
  void periodic(Duration phase, Duration period, std::function<void()> task) {
    auto timer = std::make_unique<sim::PeriodicTimer>(sci_->simulator(),
                                                      period, task);
    sim::PeriodicTimer* raw = timer.get();
    timers_.push_back(std::move(timer));
    sci_->simulator().schedule(phase, [raw, task = std::move(task)] {
      task();
      raw->start();
    });
  }

  // Phase of member k of n generators sharing one period: evenly spread,
  // nudged within its stratum by the seed.
  Duration phase(unsigned k, unsigned n, Duration period) {
    const double at = (k + rng_.next_double()) / n;
    return Duration::from_seconds_f(at * period.seconds_f());
  }

  // Machine coordinates (the fabric adds 2 us of latency per unit of
  // distance): member k of a group of n sits on a ring around the Context
  // Servers, nudged by the seed so each seed's latencies differ a little
  // while the layout, and so the latency distribution, stays the same.
  std::pair<double, double> position(unsigned k, unsigned n) {
    constexpr double kRadius = 60.0;
    constexpr double kNudge = 3.0;
    const double angle = 2.0 * std::numbers::pi * k / n;
    return {kRadius * std::cos(angle) + rng_.next_double(-kNudge, kNudge),
            kRadius * std::sin(angle) + rng_.next_double(-kNudge, kNudge)};
  }

  void enroll(entity::Component& c, range::ContextServer& server, unsigned k,
              unsigned n) {
    const auto pos = position(k, n);
    Status st = Status::ok();
    rec_.driver_call(SpanKind::kEnroll, 0, [&] {
      st = sci_->enroll(c, server, pos.first, pos.second);
    });
    require(st.is_ok(), "enroll " + c.name() + " failed");
  }

  const Options& options_;
  Rng rng_;
  Recorder rec_;
  // Declaration order is teardown order reversed: the building outlives the
  // deployment, which outlives the generators (and the derived classes'
  // components, destroyed before any base member).
  std::unique_ptr<mobility::Building> building_;
  std::unique_ptr<Sci> sci_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers_;
};

// Sequence window for the exactly-once oracle: per (subscriber, producer),
// which publish sequence numbers arrived.
struct SeqWindow {
  bool expected = false;
  std::uint64_t floor = 0;  // every seq <= floor arrived
  std::unordered_set<std::uint64_t> above;
  std::uint64_t unique = 0;

  // True on first arrival of `seq`.
  bool accept(std::uint64_t seq) {
    if (seq <= floor || above.contains(seq)) return false;
    ++unique;
    if (seq == floor + 1) {
      ++floor;
      while (above.erase(floor + 1) != 0) ++floor;
    } else {
      above.insert(seq);
    }
    return true;
  }
};

// pipeline and firehose: 32 producers publishing every 20 ms to wildcard
// (subscribe_pattern) and named (Fig-6 subscription) subscribers.
class DeliveryWorkload final : public Workload {
 public:
  DeliveryWorkload(const Options& options, bool full_stack)
      : Workload(options), full_stack_(full_stack) {}

  void setup() override {
    start_sci();
    building_ = std::make_unique<mobility::Building>(
        mobility::BuildingSpec{.floors = 1, .rooms_per_floor = 8});
    sci_->set_location_directory(&building_->directory());
    RangeOptions o;
    if (full_stack_) {
      o.sharding.shard_count = kShards;
      o.replication.standby_count = options_.standbys.value_or(1);
      o.replication.sync_acks = 1;
      o.durability.enable = true;
      o.durability.ack_after_fsync = true;
    } else {
      o.reliability.acked_delivery = false;
    }
    if (options_.lease_ttl_ms) {
      o.reliability.lease_ttl = Duration::millis(*options_.lease_ttl_ms);
    }
    auto created = sci_->create_range(kRange, building_->floor_path(0), o);
    require(created.has_value(), "create_range failed");
    lead_ = *created;

    for (unsigned i = 0; i < kProducers; ++i) {
      producers_.push_back(std::make_unique<Producer>(
          sci_->network(), sci_->new_guid(), "p" + std::to_string(i),
          entity::EntityKind::kDevice));
      enroll(*producers_.back(), *lead_, i, kProducers);
      producer_index_.emplace(producers_.back()->id(), i);
      admit_slots_.push_back(rec_.admit_slot(producers_.back()->rel_stats()));
    }
    published_.assign(kProducers, 0);

    const unsigned wildcard = full_stack_ ? 8 : 32;
    const unsigned named = full_stack_ ? 8 : 0;
    windows_.resize(wildcard + named);
    for (unsigned s = 0; s < wildcard + named; ++s) {
      windows_[s].resize(kProducers);
      subscribers_.push_back(std::make_unique<Subscriber>(
          sci_->network(), sci_->new_guid(), "s" + std::to_string(s),
          [this, s](const event::Event& e) { on_delivery(s, e); }));
      Subscriber& sub = *subscribers_.back();
      enroll(sub, *lead_, s, wildcard + named);
      if (s < wildcard) {
        range::ContextServer* home =
            options_.pattern_on_lead ? lead_ : home_shard(sub);
        rec_.driver_call(SpanKind::kSubscribePattern, 0, [&] {
          (void)home->subscribe_pattern(sub.id(), "pulse");
        });
        for (SeqWindow& w : windows_[s]) w.expected = true;
        continue;
      }
      // Named: 8 producers each; every producer is watched twice.
      for (unsigned k = 0; k < 8; ++k) {
        const unsigned p = ((s - wildcard) * 8 + k) % kProducers;
        windows_[s][p].expected = true;
        const query::Query q =
            query::Builder("n" + std::to_string(k), sub.id())
                .what_named(producers_[p]->id())
                .subscribe();
        bool ok = false;
        rec_.driver_call(SpanKind::kSubmitQuery, 0, [&] {
          ok = sci_->submit_query(sub, q).has_value();
        });
        require(ok, "named subscription submit failed");
      }
    }
    run_virtual(Duration::seconds(1));  // mirrors and subscriptions settle
    for (const auto& sub : subscribers_) {
      require(sub->failed_results == 0, "a named subscription was refused");
    }

    start_dead_letters_ = dead_letters();
    for (unsigned i = 0; i < kProducers; ++i) {
      periodic(phase(i, kProducers, kPeriod), kPeriod,
               [this, i] { publish(i); });
    }
    run_virtual(Duration::seconds(2));  // warm-up
  }

  [[nodiscard]] Duration drain() const override { return Duration::seconds(3); }

  void finish() override {
    Failures& f = rec_.failures;
    for (std::size_t s = 0; s < windows_.size(); ++s) {
      for (std::size_t p = 0; p < kProducers; ++p) {
        const SeqWindow& w = windows_[s][p];
        if (!w.expected) continue;
        rec_.attempted += published_[p];
        if (w.unique < published_[p]) f.lost += published_[p] - w.unique;
      }
    }
    f.dead_letters += dead_letters() - start_dead_letters_;
  }

  std::vector<range::ContextServer*> primaries() override {
    return sci_->shards(kRange);
  }

 private:
  static constexpr const char* kRange = "pipe";
  static constexpr unsigned kShards = 4;
  static constexpr unsigned kProducers = 32;
  static constexpr Duration kPeriod = Duration::millis(20);

  range::ContextServer* home_shard(const entity::Component& c) {
    for (range::ContextServer* s : sci_->shards(kRange)) {
      if (s->server_node() == c.registration().context_server) return s;
    }
    harness_error(c.name() + " registered with no known shard");
  }

  void publish(unsigned i) {
    Producer& p = *producers_[i];
    const std::uint64_t seq = ++published_[i];
    const std::uint64_t op = (std::uint64_t{i} + 1) << 40 | seq;
    rec_.driver_call(SpanKind::kPublish, op, [&] {
      p.publish("pulse", Value(static_cast<std::int64_t>(seq)));
    });
    rec_.sent(admit_slots_[i], sci_->now());
    if (rec_.in_window) ++rec_.publishes;
  }

  void on_delivery(unsigned s, const event::Event& e) {
    const auto it = producer_index_.find(e.source);
    if (it == producer_index_.end()) {
      ++rec_.failures.unexpected;
      rec_.touched();
      return;
    }
    SeqWindow& w = windows_[s][it->second];
    const std::uint64_t op = (std::uint64_t{it->second} + 1) << 40 | e.sequence;
    if (!w.expected) {
      ++rec_.failures.unexpected;
      rec_.touched(op);
      return;
    }
    if (!w.accept(e.sequence)) {
      ++rec_.failures.duplicates;
      rec_.touched(op);
      return;
    }
    rec_.op_done(e.timestamp, sci_->now(), op);
  }

  [[nodiscard]] std::uint64_t dead_letters() {
    obs::MetricsRegistry& m = sci_->metrics();
    return m.counter("rel.dead_letters").value() +
           m.counter("em.deliveries.dead_letter").value();
  }

  bool full_stack_;
  range::ContextServer* lead_ = nullptr;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  std::unordered_map<Guid, unsigned> producer_index_;
  std::vector<std::size_t> admit_slots_;
  std::vector<std::uint64_t> published_;
  std::vector<std::vector<SeqWindow>> windows_;  // [subscriber][producer]
  std::uint64_t start_dead_letters_ = 0;
};

// query_mix: fig11's campus (160 printers, 48 users) under an open-loop
// Zipf(1) query stream with writes interleaved: user moves and paper
// toggles force view invalidation while queries keep arriving.
class QueryMixWorkload final : public Workload {
 public:
  explicit QueryMixWorkload(const Options& options) : Workload(options) {}

  void setup() override {
    start_sci();
    building_ = std::make_unique<mobility::Building>(mobility::BuildingSpec{
        .floors = kFloors, .rooms_per_floor = kRoomsPerFloor});
    sci_->set_location_directory(&building_->directory());
    RangeOptions o;
    o.views.enable = true;
    auto created =
        sci_->create_range("campus", building_->building_path(), o);
    require(created.has_value(), "create_range failed");
    range_ = *created;

    for (unsigned room = 0; room < kRooms; ++room) {
      printers_.push_back(std::make_unique<BenchPrinter>(
          sci_->network(), sci_->new_guid(), "P" + std::to_string(room),
          place(room)));
      enroll(*printers_.back(), *range_, room, kRooms);
      printer_slots_.push_back(rec_.admit_slot(printers_.back()->rel_stats()));
    }
    paper_.assign(kRooms, Truth{1, 1, SimTime::zero()});
    for (unsigned u = 0; u < kUsers; ++u) {
      const auto room = static_cast<unsigned>(rng_.next_below(kRooms));
      users_.push_back(std::make_unique<User>(
          sci_->network(), sci_->new_guid(), "U" + std::to_string(u)));
      users_.back()->set_location(location::LocRef::from_place(place(room)));
      enroll(*users_.back(), *range_, u, kUsers);
      user_slots_.push_back(rec_.admit_slot(users_.back()->rel_stats()));
      room_.push_back(Truth{room, room, SimTime::zero()});
    }
    for (unsigned a = 0; a < kApps; ++a) {
      apps_.push_back(std::make_unique<QueryApp>(
          sci_->network(), sci_->new_guid(), "app" + std::to_string(a),
          [this](const std::string& id, const Error& error,
                 const Value& result) { on_result(id, error, result); }));
      enroll(*apps_.back(), *range_, a, kApps);
    }
    double total = 0.0;
    for (unsigned u = 0; u < kUsers; ++u) {
      total += 1.0 / static_cast<double>(u + 1);
      zipf_.push_back(total);
    }

    periodic(phase(0, 1, kQueryPeriod), kQueryPeriod, [this] { submit(); });
    periodic(phase(0, 1, kMovePeriod), kMovePeriod, [this] { move(); });
    periodic(phase(0, 1, kPaperPeriod), kPaperPeriod,
             [this] { toggle_paper(); });
    run_virtual(Duration::millis(500));  // warm-up: hot views installed
  }

  [[nodiscard]] Duration drain() const override { return Duration::seconds(1); }

  void finish() override {
    rec_.attempted = next_query_;
    // Never answered by the end of the drain: failed.
    for (const Pending& p : pending_) {
      if (!p.answered) ++rec_.failures.failed_queries;
    }
  }

  std::vector<range::ContextServer*> primaries() override { return {range_}; }

 private:
  static constexpr unsigned kFloors = 4;
  static constexpr unsigned kRoomsPerFloor = 40;
  static constexpr unsigned kRooms = kFloors * kRoomsPerFloor;
  static constexpr unsigned kUsers = 48;
  static constexpr unsigned kApps = 4;
  static constexpr Duration kQueryPeriod = Duration::millis(1);   // 1000/s
  static constexpr Duration kMovePeriod = Duration::millis(10);   // 100/s
  static constexpr Duration kPaperPeriod = Duration::millis(90);  // ~11/s
  // A write this close to a query's due instant (or after it) may or may
  // not have reached the server when the query resolved: the answer may
  // reflect the truth before or after it.
  static constexpr Duration kWriteWindow = Duration::millis(50);

  // A piece of ground truth with its value before the last write.
  struct Truth {
    unsigned now;
    unsigned before;
    SimTime changed_at;
    // The values a query due at `due` may legitimately have seen.
    [[nodiscard]] std::array<unsigned, 2> seen_by(SimTime due) const {
      return {now, due < changed_at + kWriteWindow ? before : now};
    }
  };

  struct Pending {
    unsigned user = 0;
    unsigned app = 0;
    SimTime due;
    bool answered = false;
  };

  location::PlaceId place(unsigned room) const {
    return building_->room(room / kRoomsPerFloor, room % kRoomsPerFloor);
  }

  void submit() {
    const double pick = rng_.next_double() * zipf_.back();
    const auto u = static_cast<unsigned>(
        std::lower_bound(zipf_.begin(), zipf_.end(), pick) - zipf_.begin());
    const std::uint64_t n = next_query_++;
    const unsigned a = static_cast<unsigned>(n % kApps);
    pending_.push_back(Pending{u, a, sci_->now(), false});
    const query::Query q =
        query::Builder("q" + std::to_string(n), apps_[a]->id())
            .what_entity_type("printing")
            .closest_to(users_[u]->id())
            .select(query::SelectPolicy::kClosest)
            .require("has_paper", Value(true))
            .advertisement();
    bool ok = false;
    rec_.driver_call(SpanKind::kSubmitQuery, n + 1, [&] {
      ok = sci_->submit_query(*apps_[a], q).has_value();
    });
    if (!ok) harness_error("submit_query refused a valid query");
  }

  void move() {
    const auto u = static_cast<unsigned>(rng_.next_below(kUsers));
    const auto room = static_cast<unsigned>(rng_.next_below(kRooms));
    room_[u] = Truth{room, room_[u].now, sci_->now()};
    rec_.driver_call(SpanKind::kWrite, 0, [&] {
      users_[u]->set_location(location::LocRef::from_place(place(room)));
    });
    rec_.sent(user_slots_[u], sci_->now());
    if (rec_.in_window) ++rec_.writes;
  }

  void set_paper(unsigned room, bool has_paper) {
    paper_[room] = Truth{has_paper ? 1u : 0u, paper_[room].now, sci_->now()};
    rec_.driver_call(SpanKind::kWrite, 0,
                     [&] { printers_[room]->set_paper(has_paper); });
    rec_.sent(printer_slots_[room], sci_->now());
    if (rec_.in_window) ++rec_.writes;
  }

  // One printer out of paper at a time, rotating (fig11's churn).
  void toggle_paper() {
    if (paperless_) set_paper(*paperless_, true);
    const auto victim = static_cast<unsigned>(rng_.next_below(kRooms));
    set_paper(victim, false);
    paperless_ = victim;
  }

  // fig11 ground truth: the co-room printer when it has paper, otherwise
  // any printer that has paper. Stale means every pre-/post-write reading
  // of the writes in flight rejects the answer.
  [[nodiscard]] bool stale(unsigned user, unsigned winner, SimTime due) const {
    if (winner >= kRooms) return true;
    for (const unsigned winner_paper : paper_[winner].seen_by(due)) {
      if (winner_paper == 0) continue;
      for (const unsigned room : room_[user].seen_by(due)) {
        if (room == winner) return false;
        for (const unsigned room_paper : paper_[room].seen_by(due)) {
          if (room_paper == 0) return false;
        }
      }
    }
    return true;
  }

  void on_result(const std::string& id, const Error& error,
                 const Value& result) {
    const std::uint64_t n =
        id.size() > 1 && id[0] == 'q'
            ? std::strtoull(id.c_str() + 1, nullptr, 10)
            : pending_.size();
    if (n >= pending_.size()) harness_error("reply for unknown query " + id);
    Pending& p = pending_[n];
    if (p.answered) {
      ++rec_.failures.duplicates;
      rec_.touched(n + 1);
      return;
    }
    p.answered = true;
    if (const auto outcome = range_->query_outcome(apps_[p.app]->id(), id)) {
      rec_.resolve_ns.add(
          static_cast<std::uint64_t>(outcome->resolve_micros * 1000.0));
    }
    if (!error.ok()) {
      ++rec_.failures.failed_queries;
      rec_.touched(n + 1);
      return;
    }
    const std::string winner = result.at("name").string_or("");
    const unsigned room =
        winner.size() > 1 ? static_cast<unsigned>(
                                std::strtoul(winner.c_str() + 1, nullptr, 10))
                          : kRooms;
    if (stale(p.user, room, p.due)) ++rec_.failures.stale_queries;
    rec_.op_done(p.due, sci_->now(), n + 1);
  }

  range::ContextServer* range_ = nullptr;
  std::vector<std::unique_ptr<BenchPrinter>> printers_;
  std::vector<std::unique_ptr<User>> users_;
  std::vector<std::unique_ptr<QueryApp>> apps_;
  std::vector<std::size_t> printer_slots_;
  std::vector<std::size_t> user_slots_;
  std::vector<Truth> paper_;  // 1 = has paper
  std::vector<Truth> room_;   // user → room
  std::optional<unsigned> paperless_;
  std::vector<double> zipf_;
  std::deque<Pending> pending_;  // indexed by query number
  std::uint64_t next_query_ = 0;
};

// churn: the pipeline deployment under registrar load. A fixed pool of
// entities cycles arrive (start + discover the lead) → dwell with one
// profile write → stop() → rest, on a fixed schedule.
class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(const Options& options) : Workload(options) {}

  void setup() override {
    start_sci();
    building_ = std::make_unique<mobility::Building>(
        mobility::BuildingSpec{.floors = 1, .rooms_per_floor = 8});
    sci_->set_location_directory(&building_->directory());
    RangeOptions o;
    o.sharding.shard_count = 4;
    o.replication.standby_count = options_.standbys.value_or(1);
    o.replication.sync_acks = 1;
    o.durability.enable = true;
    o.durability.ack_after_fsync = true;
    if (options_.lease_ttl_ms) {
      o.reliability.lease_ttl = Duration::millis(*options_.lease_ttl_ms);
    }
    auto created = sci_->create_range(kRange, building_->floor_path(0), o);
    require(created.has_value(), "create_range failed");
    lead_ = *created;

    roamers_.resize(kPool);
    for (unsigned i = 0; i < kPool; ++i) {
      roamers_[i].entity = std::make_unique<Roamer>(
          sci_->network(), sci_->new_guid(), "r" + std::to_string(i),
          [this, i] { on_registered(i); });
      roamers_[i].slot = rec_.admit_slot(roamers_[i].entity->rel_stats());
      const auto [x, y] = position(i, kPool);
      roamers_[i].x = x;
      roamers_[i].y = y;
      periodic(phase(i, kPool, kCycle), kCycle, [this, i] { arrive(i); });
    }
    run_virtual(kCycle + Duration::seconds(1));  // whole pool cycled once
  }

  [[nodiscard]] Duration drain() const override {
    return kDwell + Duration::seconds(1);
  }

  // leave() judges every arrival (the drain outlasts a dwell): no finish().

  std::vector<range::ContextServer*> primaries() override {
    return sci_->shards(kRange);
  }

 private:
  static constexpr const char* kRange = "pipe";
  static constexpr unsigned kPool = 1024;
  static constexpr Duration kCycle = Duration::seconds(2);
  static constexpr Duration kDwell = Duration::seconds(1);

  struct Slot {
    std::unique_ptr<Roamer> entity;
    std::size_t slot = 0;
    double x = 0.0;
    double y = 0.0;
    std::uint64_t arrival = 0;  // op id of the current cycle
    SimTime due;
    bool present = false;
    bool registered = false;
  };

  void arrive(unsigned i) {
    Slot& r = roamers_[i];
    r.arrival = ++arrivals_;
    r.due = sci_->now();
    r.present = true;
    r.registered = false;
    ++rec_.attempted;
    rec_.driver_call(SpanKind::kArrive, r.arrival, [&] {
      r.entity->start(r.x, r.y);
      r.entity->discover(lead_->server_node());
    });
    sci_->simulator().schedule(kDwell / 2, [this, i] { dwell(i); });
    sci_->simulator().schedule(kDwell, [this, i] { leave(i); });
  }

  void dwell(unsigned i) {
    Slot& r = roamers_[i];
    if (!r.registered) return;  // counted at leave()
    rec_.driver_call(SpanKind::kWrite, r.arrival, [&] {
      r.entity->set_metadata(Value(static_cast<std::int64_t>(r.arrival)));
    });
    rec_.sent(r.slot, sci_->now());
  }

  void leave(unsigned i) {
    Slot& r = roamers_[i];
    if (!r.registered) ++rec_.failures.failed_registrations;
    r.present = false;
    rec_.driver_call(SpanKind::kArrive, r.arrival, [&] { r.entity->stop(); });
  }

  void on_registered(unsigned i) {
    Slot& r = roamers_[i];
    if (!r.present || r.registered) {
      ++rec_.failures.duplicates;
      rec_.touched(r.arrival);
      return;
    }
    r.registered = true;
    rec_.op_done(r.due, sci_->now(), r.arrival);
  }

  range::ContextServer* lead_ = nullptr;
  std::vector<Slot> roamers_;
  std::uint64_t arrivals_ = 0;
};

constexpr std::string_view kWorkloads[] = {"pipeline", "firehose",
                                           "query_mix", "churn"};

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "pipeline")
    return std::make_unique<DeliveryWorkload>(options, true);
  if (options.workload == "firehose")
    return std::make_unique<DeliveryWorkload>(options, false);
  if (options.workload == "query_mix")
    return std::make_unique<QueryMixWorkload>(options);
  if (options.workload == "churn")
    return std::make_unique<ChurnWorkload>(options);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The measured window

// Counter deltas over the window, read straight from the registry slots.
class CounterDeltas {
 public:
  CounterDeltas(obs::MetricsRegistry& metrics,
                std::initializer_list<const char*> names) {
    for (const char* name : names) {
      const obs::Counter* c = &metrics.counter(name);
      entries_.emplace(name, Entry{c, c->value()});
    }
  }
  [[nodiscard]] double delta(const char* name) const {
    const Entry& e = entries_.at(name);
    return static_cast<double>(e.counter->value() - e.start);
  }

 private:
  struct Entry {
    const obs::Counter* counter;
    std::uint64_t start;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

constexpr std::int64_t kSliceNs = 200'000'000;
constexpr std::size_t kMaxSlices = 4096;

// One kind of slice (untraced or traced) over a window: totals, plus the
// rate of every full slice in ops per host CPU second.
struct Slices {
  std::uint64_t ops = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::vector<double> rates;

  // Other tenants of the machine only ever slow a slice down, so the upper
  // decile of the slice rates is the steady estimate of the host's rate.
  // Windows too short for a full slice fall back to the totals.
  [[nodiscard]] double rate() const {
    if (rates.empty()) {
      return cpu_ns > 0 ? static_cast<double>(ops) * 1e9 /
                              static_cast<double>(cpu_ns)
                        : 0.0;
    }
    std::vector<double> sorted = rates;
    std::sort(sorted.begin(), sorted.end());
    return sorted[static_cast<std::size_t>(
        std::floor(0.9 * static_cast<double>(sorted.size() - 1)))];
  }
};

struct WindowStats {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;
  Slices untraced;
  Slices traced;  // empty unless tracing
  std::size_t queue_depth_max = 0;
  std::uint64_t lag_max = 0;
  std::uint64_t pool_bytes_reserved_max = 0;
  std::uint64_t heap_allocs = 0;
  SimTime virtual_start;
  SimTime virtual_end;
};

class Driver {
 public:
  Driver(Workload& w, Tracer* tracer)
      : w_(w), tracer_(tracer), primaries_(w.primaries()) {}

  // Runs until the wall deadline or the virtual horizon, whichever first.
  template <bool kTraced>
  void slice(std::int64_t wall_stop, SimTime until, WindowStats& ws) {
    sim::Simulator& sim = w_.sci().simulator();
    Recorder& rec = w_.recorder();
    const std::uint64_t ops0 = rec.window_ops;
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t wall0 = wall_ns();
    std::uint64_t steps = 0;
    for (;;) {
      if ((steps & 63) == 0) {
        if (wall_ns() >= wall_stop) break;
        sample(ws);
      }
      bool ran = false;
      if constexpr (kTraced) {
        if (steps == 0) tracer_->resync();
        ran = tracer_->step(sim, until, rec.entity_flag, rec.step_op);
      } else {
        ran = sim.step(until);
      }
      if (!ran) {
        // Nothing left before `until`: move the clock there so the next
        // slice starts past it.
        (void)sim.run_until(until);
        break;
      }
      ++steps;
      ws.queue_depth_max = std::max(ws.queue_depth_max, sim.pending_events());
      rec.after_step(sim.now());
    }
    const std::uint64_t ops = rec.window_ops - ops0;
    const std::int64_t cpu = cpu_ns() - cpu0;
    Slices& mode = kTraced ? ws.traced : ws.untraced;
    mode.ops += ops;
    mode.wall_ns += wall_ns() - wall0;
    mode.cpu_ns += cpu;
    if (cpu >= kSliceNs / 2 && mode.rates.size() < kMaxSlices) {
      mode.rates.push_back(static_cast<double>(ops) * 1e9 /
                           static_cast<double>(cpu));
    }
    ws.steps += steps;
  }

  // The window is cut into slices of kSliceNs; with a tracer, untraced and
  // traced slices alternate so both see the same mix and the gap between
  // their rates is the tracing overhead.
  WindowStats window(const Options& o) {
    WindowStats ws;
    sim::Simulator& sim = w_.sci().simulator();
    Recorder& rec = w_.recorder();
    rec.in_window = true;
    ws.virtual_start = sim.now();
    // Slice bookkeeping must not allocate inside the heap audit.
    ws.untraced.rates.reserve(kMaxSlices);
    ws.traced.rates.reserve(kMaxSlices);
    const std::uint64_t allocs0 = g_heap_allocs;
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t start = wall_ns();
    const bool fixed_virtual = o.vseconds > 0.0;
    const SimTime horizon =
        fixed_virtual ? sim.now() + Duration::from_seconds_f(o.vseconds)
                      : SimTime::infinity();
    const std::int64_t deadline =
        fixed_virtual ? std::numeric_limits<std::int64_t>::max()
                      : start + static_cast<std::int64_t>(o.seconds * 1e9);
    // A fixed virtual window also slices in virtual time, so a short one
    // still alternates.
    const Duration vslice = Duration::millis(500);
    if (tracer_ != nullptr) tracer_->reset_totals();
    bool traced = false;
    while (wall_ns() < deadline && sim.now() < horizon) {
      const std::int64_t stop = std::min(deadline, wall_ns() + kSliceNs);
      const SimTime until =
          fixed_virtual ? std::min(horizon, sim.now() + vslice) : horizon;
      if (traced) {
        slice<true>(stop, until, ws);
      } else {
        slice<false>(stop, until, ws);
      }
      traced = tracer_ != nullptr && !traced;
    }
    ws.wall_ns = wall_ns() - start;
    ws.cpu_ns = cpu_ns() - cpu0;
    ws.heap_allocs = g_heap_allocs - allocs0;
    ws.virtual_end = sim.now();
    ws.ops = rec.window_ops;
    rec.in_window = false;
    return ws;
  }

 private:
  void sample(WindowStats& ws) {
    for (const range::ContextServer* s : primaries_) {
      ws.lag_max = std::max(ws.lag_max, s->replication_lag());
    }
    ws.pool_bytes_reserved_max =
        std::max(ws.pool_bytes_reserved_max,
                 mem::BufferArena::global().stats().bytes_reserved);
  }

  Workload& w_;
  Tracer* tracer_;
  std::vector<range::ContextServer*> primaries_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Builds and warms one deployment in a forked child and returns the child's
// set-up CPU seconds through a pipe.
double setup_in_child(const Options& options) {
  int fds[2];
  require(pipe(fds) == 0, "pipe failed");
  const pid_t pid = fork();
  require(pid >= 0, "fork failed");
  if (pid == 0) {
    close(fds[0]);
    const std::unique_ptr<Workload> w = make_workload(options);
    const std::int64_t t0 = cpu_ns();
    w->setup();
    const double seconds = static_cast<double>(cpu_ns() - t0) / 1e9;
    const bool sent =
        write(fds[1], &seconds, sizeof(seconds)) ==
        static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const bool got = read(fds[0], &seconds, sizeof(seconds)) ==
                   static_cast<ssize_t>(sizeof(seconds));
  close(fds[0]);
  int status = 0;
  require(waitpid(pid, &status, 0) == pid, "waitpid failed");
  require(got && WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "a set-up run in a child process failed");
  return seconds;
}

Options parse(int argc, char** argv) {
  Options o;
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: sci_e2e --workload pipeline|firehose|query_mix|churn "
                 "--seed N [--seconds S] [--vseconds V] [--setups K] "
                 "[--trace FILE] [--lease-ttl-ms MS] [--standbys N] "
                 "[--pattern-on home|lead]\n");
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (arg == "--vseconds") {
      o.vseconds = std::strtod(value, &end);
    } else if (arg == "--setups") {
      o.setups = static_cast<unsigned>(std::strtoul(value, &end, 10));
    } else if (arg == "--trace") {
      o.trace_path = value;
    } else if (arg == "--lease-ttl-ms") {
      o.lease_ttl_ms = std::strtoll(value, &end, 10);
    } else if (arg == "--pattern-on") {
      const std::string_view where = value;
      if (where != "lead" && where != "home") usage();
      o.pattern_on_lead = where == "lead";
    } else if (arg == "--standbys") {
      o.standbys = static_cast<unsigned>(std::strtoul(value, &end, 10));
    } else {
      usage();
    }
    if (end != nullptr && *end != '\0') usage();
  }
  const bool known =
      std::ranges::find(kWorkloads, std::string_view(o.workload)) !=
      std::end(kWorkloads);
  if (!known || o.setups == 0 || o.seconds <= 0.0) usage();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Logger::instance().set_level(LogLevel::kError);
  std::unique_ptr<Tracer> tracer;
  if (!options.trace_path.empty()) tracer = std::make_unique<Tracer>();

  // Set-up is repeated and its median reported, so work moved into set-up
  // shows. All but the last run in forked children, so every set-up starts
  // from the same untouched heap; the last one, in this process, builds the
  // deployment that is measured.
  std::vector<double> setup_s;
  for (unsigned k = 1; k < options.setups; ++k) {
    setup_s.push_back(setup_in_child(options));
  }
  const std::unique_ptr<Workload> w = make_workload(options);
  if (tracer != nullptr) {
    tracer->set_origin(wall_ns());
    w->recorder().tracer = tracer.get();
  }
  const std::int64_t setup0 = cpu_ns();
  w->setup();
  setup_s.push_back(static_cast<double>(cpu_ns() - setup0) / 1e9);
  std::sort(setup_s.begin(), setup_s.end());

  obs::MetricsRegistry& metrics = w->sci().metrics();
  if (tracer != nullptr) tracer->bind(metrics);
  const CounterDeltas d(
      metrics,
      {"sim.events.executed", "sim.events.cancelled", "net.sent",
       "net.bytes_sent", "net.dropped", "rel.acked", "rel.retransmits",
       "rel.data_sent", "rel.dead_letters", "cs.events_in", "em.deliveries",
       "cs.shard.mirror_batches", "repl.records_shipped", "repl.batches",
       "persist.appends", "persist.flushes", "persist.wal_bytes",
       "persist.checkpoints", "persist.checkpoint_bytes",
       "persist.sync_failures", "view.hits", "view.misses",
       "view.invalidations"});
  const obs::Histogram& rtt = metrics.histogram("rel.ack_rtt_ms");
  const double rtt_n0 = static_cast<double>(rtt.stats().count());
  const double rtt_sum0 = rtt.stats().mean() * rtt_n0;
  const std::uint64_t outstanding0 =
      mem::BufferArena::global().stats().outstanding;

  Driver driver(*w, tracer.get());
  const WindowStats ws = driver.window(options);
  const std::uint64_t outstanding1 =
      mem::BufferArena::global().stats().outstanding;
  const double rtt_n1 = static_cast<double>(rtt.stats().count());
  const double rtt_sum1 = rtt.stats().mean() * rtt_n1;
  const double div_total =
      static_cast<double>(metrics.counter("repl.state_divergence").value());
  // Read window deltas before the drain moves the counters again.
  const double ops = static_cast<double>(ws.ops);
  std::vector<Metric> per_layer = {
      {"sim.steps_per_op", ratio(d.delta("sim.events.executed"), ops),
       "count/op"},
      {"sim.cancels_per_op", ratio(d.delta("sim.events.cancelled"), ops),
       "count/op"},
      {"sim.queue_depth_max", static_cast<double>(ws.queue_depth_max),
       "count"},
      {"net.frames_per_op", ratio(d.delta("net.sent"), ops), "count/op"},
      {"net.bytes_per_op", ratio(d.delta("net.bytes_sent"), ops), "B/op"},
      {"net.dropped", d.delta("net.dropped"), "count"},
      {"reliable.acks_per_op", ratio(d.delta("rel.acked"), ops), "count/op"},
      {"reliable.retransmit_ratio",
       ratio(d.delta("rel.retransmits"), d.delta("rel.data_sent")), "ratio"},
      {"reliable.dead_letters", d.delta("rel.dead_letters"), "count"},
      {"reliable.ack_rtt_ms_mean",
       ratio(rtt_sum1 - rtt_sum0, rtt_n1 - rtt_n0), "ms"},
      {"range.deliveries_per_publish",
       ratio(d.delta("em.deliveries"),
             static_cast<double>(w->recorder().publishes)),
       "count"},
      {"range.mirror_batches_per_op",
       ratio(d.delta("cs.shard.mirror_batches"), ops), "count/op"},
      {"replicate.records_per_op", ratio(d.delta("repl.records_shipped"), ops),
       "count/op"},
      {"replicate.batches_per_op", ratio(d.delta("repl.batches"), ops),
       "count/op"},
      {"replicate.lag_max", static_cast<double>(ws.lag_max), "count"},
      {"replicate.state_divergence", div_total, "count"},
      {"persist.appends_per_flush",
       ratio(d.delta("persist.appends"), d.delta("persist.flushes")), "count"},
      {"persist.wal_bytes_per_op", ratio(d.delta("persist.wal_bytes"), ops),
       "B/op"},
      {"persist.checkpoint_bytes",
       ratio(d.delta("persist.checkpoint_bytes"),
             d.delta("persist.checkpoints")),
       "B"},
      {"persist.sync_failures", d.delta("persist.sync_failures"), "count"},
      {"compose.view_hit_ratio",
       ratio(d.delta("view.hits"),
             d.delta("view.hits") + d.delta("view.misses")),
       "ratio"},
      {"compose.resolve_us_p50",
       w->recorder().resolve_ns.percentile(0.50) / 1e3, "us"},
      {"compose.resolve_us_p99",
       w->recorder().resolve_ns.percentile(0.99) / 1e3, "us"},
      {"compose.invalidations_per_write",
       ratio(d.delta("view.invalidations"),
             static_cast<double>(w->recorder().writes)),
       "count"},
      {"mem.heap_allocs_per_op",
       ratio(static_cast<double>(ws.heap_allocs), ops), "count/op"},
      {"mem.pool_bytes_reserved_max",
       static_cast<double>(ws.pool_bytes_reserved_max), "B"},
      {"mem.pool_outstanding_delta",
       static_cast<double>(outstanding1) - static_cast<double>(outstanding0),
       "count"},
  };

  // Drain: let every in-flight op settle, then run the oracles.
  w->stop_load();
  w->run_virtual(w->drain());
  w->finish();
  const Recorder& rec = w->recorder();
  const Failures& f = rec.failures;
  per_layer.push_back(
      {"compose.stale_reads", static_cast<double>(f.stale_queries), "count"});

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double wall_s = static_cast<double>(ws.wall_ns) / 1e9;
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, rec.attempted));

  const auto ms = [](const LatencyTable& t, double p) {
    return static_cast<double>(t.percentile(p)) / 1e3;
  };
  std::vector<Metric> e2e = {
      {"setup_s", setup_s[setup_s.size() / 2], "s"},
      {"ops_per_s", ws.untraced.rate(), "ops/s"},
      {"latency_p50_ms", ms(rec.latency, 0.50), "ms"},
      {"latency_p99_ms", ms(rec.latency, 0.99), "ms"},
      {"latency_p999_ms", ms(rec.latency, 0.999), "ms"},
      {"admit_p99_ms", ms(rec.admit, 0.99), "ms"},
      {"failed_op_ratio", static_cast<double>(f.total()) / attempted, "ratio"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
  };

  if (tracer != nullptr) {
    const double traced_ops = static_cast<double>(ws.traced.ops);
    const auto ns_per_op = [&](Layer layer) {
      return ratio(static_cast<double>(tracer->layer_ns(layer)), traced_ops);
    };
    const std::vector<Metric> traced = {
        {"sim.step_ns_p50", tracer->step_ns().percentile(0.50), "ns"},
        {"sim.step_ns_p99", tracer->step_ns().percentile(0.99), "ns"},
        {"sim.self_ns_per_op", ns_per_op(Layer::kSim), "ns/op"},
        {"entity.publish_ns_p50", tracer->publish_ns().percentile(0.50), "ns"},
        {"entity.recv_ns_per_op", ns_per_op(Layer::kEntity), "ns/op"},
        {"query.submit_ns_p50", tracer->submit_ns().percentile(0.50), "ns"},
        {"reliable.ns_per_op", ns_per_op(Layer::kReliable), "ns/op"},
        {"range.admit_ns_p50", tracer->admit_ns().percentile(0.50), "ns"},
        {"range.admit_ns_p99", tracer->admit_ns().percentile(0.99), "ns"},
        {"range.ns_per_op", ns_per_op(Layer::kRange), "ns/op"},
        {"replicate.ns_per_op", ns_per_op(Layer::kReplicate), "ns/op"},
        {"persist.ns_per_op", ns_per_op(Layer::kPersist), "ns/op"},
        {"compose.ns_per_op", ns_per_op(Layer::kCompose), "ns/op"},
        // How much of an op's untraced host cost the per-layer self times
        // account for: the layer parts against the measured whole.
        {"trace.attributed_share",
         ratio(ratio(static_cast<double>(tracer->covered_ns()), traced_ops),
               ratio(static_cast<double>(ws.untraced.wall_ns),
                     static_cast<double>(ws.untraced.ops))),
         "ratio"},
        {"trace.overhead_ratio",
         1.0 - ratio(ws.traced.rate(), ws.untraced.rate()), "ratio"},
    };
    per_layer.insert(per_layer.end(), traced.begin(), traced.end());
    require(tracer->write(options.trace_path),
            "cannot write trace file " + options.trace_path);
  }

  const bool correct = f.total() == 0;
  for (const Metric& m : e2e) {
    std::printf("%s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("latency_samples %" PRIu64 " count\n", rec.latency.count());
  std::printf("admit_samples %" PRIu64 " count\n", rec.admit.count());
  for (const Metric& m : per_layer) {
    std::printf("%s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"workload\":\"" + options.workload +
                     "\",\"seed\":" + std::to_string(options.seed) +
                     ",\"traced\":" + (tracer ? "true" : "false") +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(rec.attempted) +
                     ",\"failed\":" + std::to_string(f.total());
  json += ",\"failures\":{\"lost\":" + std::to_string(f.lost) +
          ",\"duplicates\":" + std::to_string(f.duplicates) +
          ",\"unexpected\":" + std::to_string(f.unexpected) +
          ",\"dead_letters\":" + std::to_string(f.dead_letters) +
          ",\"failed_queries\":" + std::to_string(f.failed_queries) +
          ",\"stale_queries\":" + std::to_string(f.stale_queries) +
          ",\"failed_registrations\":" +
          std::to_string(f.failed_registrations) + "}";
  json += ",\"window\":{\"wall_s\":" + json_number(wall_s) +
          ",\"cpu_s\":" + json_number(static_cast<double>(ws.cpu_ns) / 1e9) +
          ",\"virtual_s\":" +
          json_number((ws.virtual_end - ws.virtual_start).seconds_f()) +
          ",\"ops\":" + std::to_string(ws.ops) +
          ",\"steps\":" + std::to_string(ws.steps) +
          ",\"latency_samples\":" + std::to_string(rec.latency.count()) +
          ",\"admit_samples\":" + std::to_string(rec.admit.count()) + "}";
  if (tracer != nullptr) {
    json += ",\"spans\":{\"kept\":" + std::to_string(tracer->recorded()) +
            ",\"dropped\":" + std::to_string(tracer->dropped()) + "}";
  }
  json += ",\"setup_runs_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    json += (i ? "," : "") + json_number(setup_s[i]);
  }
  json += "]";
  const auto emit = [&json](const char* key, const std::vector<Metric>& group) {
    json += ",\"" + std::string(key) + "\":{";
    for (std::size_t i = 0; i < group.size(); ++i) {
      json += (i ? ",\"" : "\"") + group[i].name + "\":{\"value\":" +
              json_number(group[i].value) + ",\"unit\":\"" + group[i].unit +
              "\"}";
    }
    json += "}";
  };
  emit("end_to_end", e2e);
  emit("per_layer", per_layer);
  json += "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  // Skip the deployment's teardown: the process is done.
  std::_Exit(0);
}
