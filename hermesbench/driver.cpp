// One repetition of a named end-to-end workload, driven through the public
// APIs of net, overlay, protocols/hermes, mempool, sim and workload.
//
//   hermesbench_driver --workload NAME --seed S [--workers W]
//                      [--trace-out PATH] [--samples-out PATH]
//
// Prints one JSON object on stdout: the wall-clock phases (setup_s from
// workload start to the first injection, run_s from the first injection to
// the end of the drain), peak RSS, the simulated outcome (first-delivery
// latency percentiles, bytes per transaction, front-running verdicts,
// attempted/failed transactions), behaviour digests, and the result of
// every correctness check. With --trace-out the run also records spans
// around each call into a layer, counts sends by message type through
// sim::Network's send tap, writes the spans and each layer's self time to
// PATH, and adds the per-layer metrics to the JSON object. --samples-out
// writes the latency samples as native doubles, so run.py can pool them
// over seeds. run.py repeats this process over several seeds and reports
// medians.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "hermes/hermes_node.hpp"
#include "net/topology.hpp"
#include "overlay/encoding.hpp"
#include "protocols/base.hpp"
#include "support/bytes.hpp"
#include "workload/arrival.hpp"
#include "workload/driver.hpp"
#include "workload/economics.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace {

using namespace hermes;
using hermes_proto::HermesNode;

// --- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t nodes;
  std::size_t workers;
  double frontrunner_fraction;  // 0 = every node honest
  std::size_t mempool_capacity;  // 0 = unbounded
  workload::ArrivalKind kind;
  double rate_hz;
  std::size_t txs;  // honest transactions per run (a fixed count)
  double drain_ms;
  double slice_ms;  // run_until granularity
  bool churn;
};

// The world (topology, behaviour seats, committee, overlay build) comes
// from a fixed per-workload seed, so every run builds the same network and
// set-up does the same work; --seed draws the traffic and churn inputs.
constexpr std::uint64_t kWorldSeed = 20250705;

constexpr Workload kWorkloads[] = {
    // Overlay construction at scale: k=3 robust trees over 3000 nodes
    // dominate the wall time; a light Poisson stream checks the result.
    {"overlay-scale", 3000, 1, 0.0, 0, workload::ArrivalKind::kPoisson, 8.0,
     24, 2000.0, 500.0, false},
    // The sharded event loop under adversarial load: TRS, forwarding,
    // certificate checks and fee-priority eviction at capacity 48.
    {"sustained-load", 1000, 2, 0.15, 48, workload::ArrivalKind::kAdversarial,
     40.0, 200, 6000.0, 500.0, false},
    // Two crash+rejoin waves absorbed by local repair, join admission and
    // the epoch pipeline.
    {"churn", 150, 1, 0.0, 0, workload::ArrivalKind::kPoisson, 0.0, 0,
     6000.0, 250.0, true},
};

// Churn timeline (simulated ms): one arrival per kChurnGapMs slot from a
// rotating sender set; kChurnWarm arrivals before the first wave, then per
// wave kChurnVictims nodes crash, kChurnWaveArrivals arrive, the victims
// rejoin, and kChurnWaveArrivals more arrive.
constexpr std::size_t kChurnWaves = 2;
constexpr std::size_t kChurnVictims = 2;
constexpr std::size_t kChurnSenders = 8;
constexpr std::size_t kChurnWarm = 6;
constexpr std::size_t kChurnWaveArrivals = 8;
constexpr double kChurnGapMs = 250.0;
constexpr double kChurnJitterMs = 100.0;

hermes_proto::HermesConfig hermes_config(const Workload& w) {
  // k = 3 overlays with a short annealing schedule (the scale
  // configuration of the simulator benches).
  hermes_proto::HermesConfig cfg;
  cfg.f = 1;
  cfg.k = 3;
  cfg.builder.annealing.initial_temperature = 5.0;
  cfg.builder.annealing.min_temperature = 1.0;
  cfg.builder.annealing.cooling_rate = 0.8;
  cfg.builder.annealing.moves_per_temperature = 4;
  if (w.churn) {
    cfg.enable_self_healing = true;
    cfg.enable_join_admission = true;
    cfg.health_tick_ms = 500.0;
    cfg.enable_epoch_pipeline = true;
    cfg.reanneal_hysteresis = 2;
    cfg.pipeline_anneal_ms = 250.0;
    // Churn is the pipeline's job; the view-change layer stays for real
    // degradation only.
    cfg.view_change_threshold = 100.0;
  }
  return cfg;
}

// --- clocks and spans -------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
  const char* layer;
  const char* name;
  int parent;  // index into the span list; -1 for the root
  double start, end;
  double cpu_start, cpu_end;
  double duration() const { return end - start; }
};

// In-memory span recorder around calls into the layers. Disabled, span()
// only calls through, so the untraced run pays nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  template <typename F>
  decltype(auto) span(const char* layer, const char* name, F&& body) {
    if (!enabled_) return body();
    struct Closer {
      Tracer* t;
      ~Closer() { t->close(); }
    } closer{this};
    open(layer, name);
    return body();
  }

  // Sum of durations (wall or CPU) of the spans with this name.
  double total(const char* name, bool cpu = false) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      sum += cpu ? s.cpu_end - s.cpu_start : s.duration();
    }
    return sum;
  }

  // Layer -> self time: each span's duration minus what its children cover.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.duration();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += spans_[i].duration() - child[i];
    }
    return out;
  }

 private:
  void open(const char* layer, const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{layer, name, parent, wall_now(), 0.0, cpu_now(), 0.0});
  }
  void close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end = wall_now();
    s.cpu_end = cpu_now();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Sends by message type, fed by sim::Network's send tap. The tap may fire
// from engine lane threads, so the counts are atomics; totals are read
// after the drain, when every lane has joined. Counts do not depend on the
// order of the increments, so they are equal at any worker count.
class SendCounts {
 public:
  static constexpr std::size_t kTypes = 64;
  void add(std::uint32_t type) { ++counts_[std::min<std::size_t>(type, kTypes - 1)]; }
  std::uint64_t of(std::initializer_list<std::uint32_t> types) const {
    std::uint64_t sum = 0;
    for (std::uint32_t t : types) sum += counts_[t];
    return sum;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kTypes> counts_{};
};

// --- host fingerprint -------------------------------------------------------

// The CPU's brand string, read with cpuid (no file access).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- JSON output ------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + json_escape(v) + "\"");
  }
  void raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(const crypto::Digest& d) {
  return hex_encode(BytesView(d.data(), d.size()));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

// --- one repetition ---------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  std::size_t workers = 0;  // 0 = the workload's own
  std::string trace_out, samples_out;
};

int run(const Workload& w, const Options& opt) {
  const std::uint64_t seed = opt.seed;
  const std::size_t workers = opt.workers ? opt.workers : w.workers;
  const std::string& trace_out = opt.trace_out;
  Tracer tracer(!trace_out.empty());
  SendCounts sends;
  std::vector<std::string> failures;
  const double t_start = wall_now();

  // ---- setup: topology, world, HERMES populate (overlay build + keys).
  // The protocol outlives the world, as in the simulator benches.
  auto protocol =
      std::make_unique<hermes_proto::HermesProtocol>(hermes_config(w));
  std::unique_ptr<protocols::ExperimentContext> ctx_holder;
  tracer.span("bench", "setup", [&] {
    net::Topology topo = tracer.span("net", "net::make_topology", [&] {
      net::TopologyParams tp;
      tp.node_count = w.nodes;
      tp.min_degree = 6;
      tp.connectivity = 2;
      Rng rng(kWorldSeed);
      return net::make_topology(tp, rng);
    });
    tracer.span("protocols", "protocols::ExperimentContext", [&] {
      sim::NetworkParams np;
      np.workers = workers;
      ctx_holder = std::make_unique<protocols::ExperimentContext>(
          std::move(topo), np, kWorldSeed ^ 0x5eedULL);
      if (w.frontrunner_fraction > 0.0) {
        ctx_holder->assign_behaviors(w.frontrunner_fraction,
                                     protocols::Behavior::kFrontRunner);
      }
      ctx_holder->attack_enabled = w.frontrunner_fraction > 0.0;
      ctx_holder->mempool_capacity = w.mempool_capacity;
    });
    tracer.span("overlay", "protocols::populate",
                [&] { protocols::populate(*ctx_holder, *protocol); });
  });
  protocols::ExperimentContext& ctx = *ctx_holder;
  const auto initial = protocol->shared();
  // Every installed generation with the sim time it took effect.
  std::vector<std::shared_ptr<const hermes_proto::HermesShared>> generations{
      initial};
  std::vector<double> installed_at{0.0};
  protocol->set_install_observer(
      [&](std::shared_ptr<const hermes_proto::HermesShared> next, double now) {
        generations.push_back(std::move(next));
        installed_at.push_back(now);
      });
  if (tracer.enabled()) {
    ctx.network.set_send_tap(
        [&sends](const sim::Message& m, sim::SimTime) { sends.add(m.type); });
  }

  // Arrivals. Churn: the victims (non-committee relays) that leave and
  // rejoin every wave, and a fixed rotating set of non-committee senders.
  // The seed jitters each arrival within its slot and draws the fees; it
  // does not pick the senders, which would swing the amount of repair work
  // between seeds.
  std::vector<workload::Arrival> arrivals;
  std::vector<net::NodeId> victims;
  if (w.churn) {
    for (net::NodeId v = 0; v < w.nodes && victims.size() < kChurnVictims; ++v) {
      if (initial->is_committee_member(v)) continue;
      for (const auto& ov : initial->overlays) {
        if (!ov.successors(v).empty()) {
          victims.push_back(v);
          break;
        }
      }
    }
    std::vector<net::NodeId> senders;
    for (net::NodeId v = 0; v < w.nodes && senders.size() < kChurnSenders; ++v) {
      if (!initial->is_committee_member(v) &&
          std::find(victims.begin(), victims.end(), v) == victims.end()) {
        senders.push_back(v);
      }
    }
    Rng draw(seed ^ 0xc4u);
    const std::size_t total =
        kChurnWarm + kChurnWaves * 2 * kChurnWaveArrivals;
    for (std::size_t i = 0; i < total; ++i) {
      workload::Arrival a;
      a.at_ms = static_cast<double>(i) * kChurnGapMs +
                draw.uniform_real(0.0, kChurnJitterMs);
      a.sender = senders[i % senders.size()];
      a.fee = 10 + draw.uniform_u64(40);
      arrivals.push_back(a);
    }
  } else {
    // A Poisson stream cut to exactly w.txs arrivals, so every run carries
    // the same load.
    workload::WorkloadParams wp;
    wp.kind = w.kind;
    wp.rate_hz = w.rate_hz;
    wp.duration_ms = 2.0 * 1000.0 * static_cast<double>(w.txs) / w.rate_hz;
    wp.seed = seed ^ 0x770a1cULL;
    const auto honest = ctx.honest_nodes();
    arrivals = workload::generate_arrivals(wp, honest);
    if (arrivals.size() < w.txs) failures.push_back("arrival stream too short");
    arrivals.resize(std::min(arrivals.size(), w.txs));
  }
  const double t_setup_end = wall_now();
  const double setup_rss = peak_rss_mb();  // the build's peak, mostly

  // ---- run: scheduling, run_until slices, churn actions.
  std::uint64_t events = 0;
  workload::ScheduleResult sched;
  // Sim time each churn victim last came back; a node that was down at any
  // point after a transaction's arrival is not a live receiver of it.
  std::vector<double> last_rejoin(ctx.node_count(), -1.0);
  double churn_drain_s = 0.0;
  tracer.span("bench", "run", [&] {
    sched = tracer.span("workload", "workload::schedule_arrivals", [&] {
      return workload::schedule_arrivals(ctx, arrivals);
    });
    const double end_ms = sched.horizon_ms + w.drain_ms;
    // Churn actions at quiescent points: (time, victims crash or rejoin).
    std::vector<std::pair<double, bool>> actions;
    if (w.churn) {
      double t = static_cast<double>(kChurnWarm) * kChurnGapMs;
      for (std::size_t wave = 0; wave < kChurnWaves; ++wave) {
        actions.emplace_back(t, true);
        t += static_cast<double>(kChurnWaveArrivals) * kChurnGapMs;
        actions.emplace_back(t, false);
        t += static_cast<double>(kChurnWaveArrivals) * kChurnGapMs;
      }
    }
    std::size_t next_action = 0;
    // hermes.churn_drain_s: the drain from the first membership change on;
    // the whole drain on workloads without churn.
    bool churning = !w.churn;
    while (ctx.engine.now() < end_ms) {
      double deadline = std::min(end_ms, ctx.engine.now() + w.slice_ms);
      if (next_action < actions.size()) {
        deadline = std::min(deadline, actions[next_action].first);
      }
      const double t0 = wall_now();
      events += tracer.span("sim", "sim::Engine::run_until",
                            [&] { return ctx.engine.run_until(deadline); });
      if (churning) churn_drain_s += wall_now() - t0;
      if (next_action < actions.size() &&
          ctx.engine.now() >= actions[next_action].first) {
        const bool crash = actions[next_action++].second;
        churning = true;
        tracer.span("hermes", crash ? "churn: crash" : "churn: rejoin", [&] {
          for (net::NodeId v : victims) {
            ctx.network.set_crashed(v, crash);
            if (crash) continue;
            last_rejoin[v] = ctx.engine.now();
            ctx.engine.schedule(0.0, [&ctx, v] {
              if (auto* hn = dynamic_cast<HermesNode*>(&ctx.node(v))) {
                hn->begin_join();
              }
            });
          }
        });
      }
    }
  });
  const double t_run_end = wall_now();
  const double rss = peak_rss_mb();

  // ---- outcome (outside the timed phases).
  const workload::EconomicsReport eco = tracer.span(
      "workload", "workload::analyze_attacks",
      [&] { return workload::analyze_attacks(ctx, sched.txs); });

  // First-delivery latency over (tx, live honest receiver) pairs: honest
  // nodes that were up from the transaction's arrival to the end. The
  // origin's own delivery carries the propagation start (HERMES restamps
  // it after the TRS round), so latencies are measured from there.
  // Quality guard for the measured latency: the predicted latency of the
  // trees in force when each transaction arrived, over the same pairs.
  // tree_latency[generation][tree][node].
  const auto tree_latency = tracer.span(
      "overlay", "overlay::dissemination_latencies", [&] {
        std::vector<std::vector<std::vector<double>>> out;
        for (const auto& gen : generations) {
          out.emplace_back();
          for (const overlay::Overlay& ov : gen->overlays) {
            out.back().push_back(ov.dissemination_latencies());
          }
        }
        return out;
      });
  double tree_latency_sum = 0.0;
  std::size_t tree_latency_n = 0;
  std::vector<double> latencies;
  std::size_t failed = 0;
  crypto::Sha256 delivery_hash;
  for (const auto& tx : sched.txs) {
    const std::size_t gen = static_cast<std::size_t>(
        std::upper_bound(installed_at.begin() + 1, installed_at.end(),
                         tx.created_at) -
        installed_at.begin() - 1);
    const double t0 = ctx.tracker.delivery_time(tx.id, tx.sender);
    bool complete = t0 >= 0.0;
    for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
      const double at = ctx.tracker.delivery_time(tx.id, v);
      if (at >= 0.0) {
        Bytes row;
        put_u64_be(row, tx.id);
        put_u32_be(row, v);
        std::uint64_t bits;
        std::memcpy(&bits, &at, sizeof(bits));
        put_u64_be(row, bits);
        delivery_hash.update(row);
      }
      if (v == tx.sender || !ctx.is_honest(v) || ctx.network.is_crashed(v) ||
          tx.created_at < last_rejoin[v]) {
        continue;
      }
      for (const auto& per_node : tree_latency[gen]) {
        tree_latency_sum += per_node[v];
        ++tree_latency_n;
      }
      if (at < 0.0) {
        complete = false;
      } else if (t0 >= 0.0) {
        latencies.push_back(at - t0);
      }
    }
    if (!complete) ++failed;
  }
  // Without front-runners every transaction must reach every live honest
  // node. With them, censored victims can be lost for good once the
  // fallback holders have evicted them, so failures are only counted.
  if (w.frontrunner_fraction == 0.0 && failed > 0) {
    failures.push_back(std::to_string(failed) +
                       " transactions missed a live honest node");
  }

  // Overlays: every installed generation validates; digest of encodings.
  crypto::Sha256 overlay_hash;
  std::uint64_t edges = 0;
  tracer.span("overlay", "overlay::validate+encode", [&] {
    for (std::size_t g = 0; g < generations.size(); ++g) {
      for (std::size_t i = 0; i < generations[g]->overlays.size(); ++i) {
        const overlay::Overlay& ov = generations[g]->overlays[i];
        const auto problems = ov.validate();
        if (!problems.empty()) {
          failures.push_back("generation " + std::to_string(g) + " overlay " +
                             std::to_string(i) + ": " + problems.front());
        }
        overlay_hash.update(overlay::encode_overlay(ov));
      }
    }
    for (const overlay::Overlay& ov : initial->overlays) {
      edges += ov.edge_count();
    }
  });

  // Per-node accessors: mempool conservation, TRS wait, repair failures.
  std::uint64_t admitted = 0, evicted = 0, rejected = 0;
  double trs_wait_weighted = 0.0;
  std::size_t trs_wait_n = 0, repair_failures = 0;
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    if (const auto* hn = dynamic_cast<const HermesNode*>(&ctx.node(v))) {
      trs_wait_weighted += hn->trs_wait_ms().mean() *
                           static_cast<double>(hn->trs_wait_ms().count());
      trs_wait_n += hn->trs_wait_ms().count();
      repair_failures += hn->repair_failures();
    }
    if (!ctx.is_honest(v)) continue;
    const mempool::Mempool& pool = ctx.node(v).pool();
    admitted += pool.admitted_total();
    evicted += pool.evicted_total();
    rejected += pool.rejected_total();
    if (pool.admitted_total() !=
        pool.size() + pool.evicted_total() + pool.committed_total()) {
      failures.push_back("mempool conservation broken at node " +
                         std::to_string(v));
    }
  }
  if (w.churn) {
    if (protocol->pipelined_advances() < 1) {
      failures.push_back("churn: no pipelined epoch install");
    }
    if (protocol->stop_the_world_advances() != 0) {
      failures.push_back("churn: stop-the-world rebuild happened");
    }
  }
  if (sched.txs.empty()) failures.push_back("no transactions scheduled");

  const double txs = static_cast<double>(std::max<std::size_t>(1, sched.txs.size()));
  const sim::BandwidthCounters total = ctx.network.total();

  JsonObject out;
  out.str("workload", w.name);
  out.count("seed", seed);
  out.count("workers", workers);
  out.count("nodes", w.nodes);
  out.num("setup_s", t_setup_end - t_start);
  out.num("run_s", t_run_end - t_setup_end);
  out.num("peak_rss_mb", rss);
  out.num("latency_p50_ms", percentile(latencies, 0.50));
  out.num("latency_p99_ms", percentile(latencies, 0.99));
  out.count("latency_samples", latencies.size());
  out.num("bytes_per_tx", static_cast<double>(total.bytes_sent) / txs);
  out.count("bytes_sent", total.bytes_sent);
  out.count("attacked", eco.attacked);
  out.count("frontrun_wins", eco.insertions);
  out.count("attempted", sched.txs.size());
  out.count("failed", failed);
  out.str("overlay_digest", hex(overlay_hash.finish()));
  out.str("delivery_digest", hex(delivery_hash.finish()));
  std::string failure_list;
  for (const std::string& f : failures) {
    failure_list += (failure_list.empty() ? "\"" : ", \"") + json_escape(f) + "\"";
  }
  out.raw("check_failures", "[" + failure_list + "]");
  JsonObject host;
  host.count("nproc", online_cpus());
  host.str("cpu", cpu_model());
#ifdef __clang__
  host.str("compiler", __VERSION__);  // "... Clang x.y.z"
#else
  host.str("compiler", std::string("g++ ") + __VERSION__);
#endif
  host.str("build_type", HERMESBENCH_BUILD_TYPE);
  out.raw("host", host.done());

  if (tracer.enabled()) {
    const double drain_s = tracer.total("sim::Engine::run_until");
    const double drain_cpu_s = tracer.total("sim::Engine::run_until", true);
    const std::uint64_t data_msgs =
        sends.of({HermesNode::kMsgData, HermesNode::kMsgBatchChunk});
    const std::uint64_t fallback_msgs =
        sends.of({HermesNode::kMsgFallback, HermesNode::kMsgFallbackOffer,
                  HermesNode::kMsgFallbackRequest});
    const std::uint64_t first_deliveries = ctx.tracker.all_latencies().size();
    // Wall-clock and memory figures vary per repetition; counts of
    // simulated work repeat exactly.
    JsonObject times, counts;
    times.num("net.topology_s", tracer.total("net::make_topology"));
    times.num("overlay.build_s", tracer.total("protocols::populate"));
    times.num("overlay.build_peak_rss_mb", setup_rss);
    times.num("sim.drain_s", drain_s);
    times.num("sim.drain_cpu_s", drain_cpu_s);
    times.num("sim.events_per_s", static_cast<double>(events) / drain_s);
    times.num("sim.parallelism", drain_cpu_s / drain_s);
    times.num("hermes.churn_drain_s", churn_drain_s);
    times.num("workload.schedule_s", tracer.total("workload::schedule_arrivals"));
    times.num("workload.analyze_s", tracer.total("workload::analyze_attacks"));
    counts.num("overlay.tree_latency_ms",
              tree_latency_n ? tree_latency_sum / static_cast<double>(tree_latency_n)
                             : 0.0);
    counts.count("overlay.edges", edges);
    counts.count("sim.events", events);
    counts.count("sim.pool_capacity", ctx.engine.pool_capacity());
    counts.num("hermes.trs_msgs_per_tx",
              static_cast<double>(sends.of(
                  {HermesNode::kMsgTrsRequest, HermesNode::kMsgTrsEcho,
                   HermesNode::kMsgTrsReady, HermesNode::kMsgTrsPartial})) /
                  txs);
    counts.num("hermes.data_msgs_per_tx", static_cast<double>(data_msgs) / txs);
    counts.num("hermes.fallback_msgs_per_tx",
              static_cast<double>(fallback_msgs) / txs);
    counts.count("hermes.membership_msgs",
                sends.of({HermesNode::kMsgDepartureReport,
                          HermesNode::kMsgViewChangeVote,
                          HermesNode::kMsgJoinRequest,
                          HermesNode::kMsgJoinWitness,
                          HermesNode::kMsgStateCatchUp}));
    counts.num("hermes.useful_delivery_ratio",
              static_cast<double>(first_deliveries) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, data_msgs + sends.of({HermesNode::kMsgFallback}))));
    counts.num("hermes.trs_wait_ms",
              trs_wait_n ? trs_wait_weighted / static_cast<double>(trs_wait_n)
                         : 0.0);
    counts.count("hermes.pipelined_installs", protocol->pipelined_advances());
    counts.count("hermes.stw_rebuilds", protocol->stop_the_world_advances());
    counts.count("hermes.deltas_absorbed",
                protocol->deltas_absorbed_incrementally());
    counts.count("hermes.pipeline_invalidations",
                protocol->pipeline_invalidations());
    counts.count("hermes.repair_failures", repair_failures);
    counts.count("mempool.admitted", admitted);
    counts.count("mempool.evicted", evicted);
    counts.count("mempool.rejected", rejected);
    counts.num("mempool.evict_ratio",
              admitted ? static_cast<double>(evicted) / static_cast<double>(admitted)
                       : 0.0);
    counts.count("workload.attacked", eco.attacked);
    counts.num("workload.frontrun_rate", eco.insertion_rate());
    out.raw("layer_times", times.done());
    out.raw("layer_counts", counts.done());

    // Spans and self times to the trace file.
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    char run_id[96];
    std::snprintf(run_id, sizeof(run_id), "%s/%" PRIu64 "/%ld", w.name, seed,
                  static_cast<long>(getpid()));
    std::fprintf(f, "{\"run_id\": \"%s\", \"host\": %s,\n \"self_s\": {",
                 run_id, host.done().c_str());
    bool first = true;
    for (const auto& [layer_name, self] : tracer.self_times()) {
      std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", layer_name.c_str(),
                   self);
      first = false;
    }
    std::fprintf(f, "},\n \"spans\": [\n");
    const auto& spans = tracer.spans();
    const double origin = spans.empty() ? 0.0 : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "  {\"run_id\": \"%s\", \"id\": %zu, \"parent\": %d, "
                   "\"layer\": \"%s\", \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"cpu_s\": %.9f}%s\n",
                   run_id, i, s.parent, s.layer, s.name, s.start - origin,
                   s.end - origin, s.cpu_end - s.cpu_start,
                   i + 1 == spans.size() ? "" : ",");
    }
    std::fprintf(f, " ]}\n");
    std::fclose(f);
  }
  if (!opt.samples_out.empty()) {
    std::FILE* f = std::fopen(opt.samples_out.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(latencies.data(), sizeof(double), latencies.size(), f) !=
            latencies.size()) {
      std::fprintf(stderr, "cannot write %s\n", opt.samples_out.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") name = argv[i + 1];
    else if (flag == "--seed") opt.seed = std::stoull(argv[i + 1]);
    else if (flag == "--workers") opt.workers = std::stoul(argv[i + 1]);
    else if (flag == "--trace-out") opt.trace_out = argv[i + 1];
    else if (flag == "--samples-out") opt.samples_out = argv[i + 1];
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return run(w, opt);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  return 2;
}
