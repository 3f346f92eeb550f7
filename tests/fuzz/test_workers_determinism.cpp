// Cross-worker determinism suite: the trace hash of every fuzz-corpus
// scenario must be byte-identical for any engine worker count. This is the
// acceptance contract of the region-sharded parallel engine — parallelism
// may only change wall-clock time, never the simulation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::fuzz {
namespace {

constexpr std::uint64_t kCorpusSeeds = 24;
const std::size_t kWorkerCounts[] = {2, 4, 8};

// `fuzz --hash-batch 24` at workers=1: trace hash and send count of corpus
// seeds 1..24. A change that moves any of these changed the simulation; it
// must either be fixed or re-pin the table on purpose.
struct PinnedTrace {
  const char* trace_hash;
  std::size_t sends;
};
const PinnedTrace kPinnedCorpus[kCorpusSeeds] = {
    {"b89b691fbacaa753db45321746e995549a84e4a62b7cf9c318f1004297c7a26f", 870},
    {"60d642cbdba52ba5fa83c8fc9f1345fa5f7b8290232f0c8bb2c85cd4915c58b1", 1102},
    {"e75df24ec15d29fd405cd827a5a884e797a18d464e1a1888b5d36c7ae97bce08", 366},
    {"6cc0f681eeef1338f1a36e2443a6e49c96fccb723bb142e996625ede9890135b", 250},
    {"ccd14a515074292bfe5cf94cf407dccc5f8fb91c2a7f81b1c6e6f83f0c47021c", 635},
    {"0ed73b6b2263540f3a4db2522b26576f5ead9410eea5b3727339fb14382e0a9e", 560},
    {"a4595e0a87d2140339189bcb75a9d247369108efcf9f3f828ec8dc5fcd4dc0dc", 149},
    {"d2e7fb26b62a0b0704ede0f7ad02047e54eef2052af4748523b85ac1ad39ad5f", 480},
    {"fbd8ab324afd5d31b434634982758f5e5caeeafd323cc8c7ce4eff1222bfd1bb", 503},
    {"d826f03d8a01c31412ec2fb5a8b8552a52e23563ca84214151add343408d3885", 1903},
    {"b55a83c9ea1e16f861606030d4d7cd69549127a58a65694c3e87e3e504dd494e", 4823},
    {"39ce7cf605ab0804137411f23e94e135c875800a455c450ffaa796a8b103334b", 553},
    {"4c6a07a650ae60510a9dc06454579c470b4b0bc3c1806a7ca30bce86982d1f59", 165},
    {"ea3773f45189877aafd578cb0309f8597020577fe895c7d5751dd49c1094b8dd", 516},
    {"672cc13b7ea69687e6514cc339685100193dc5c98c1a4d2c3f06b6050fd68719", 1244},
    {"7fb58de794063d17cd6d9edd9bdbcd4323a8d767dc43d0585fafae457fc9bd1b", 209},
    {"b943e4859a93895e211db6497e981133e597806691a1f4d287724a7c8b004e4b", 2262},
    {"948e157f509578d475910fb500efe1354225423bc8c77b728b82bb937e91e637", 1064},
    {"712ae2bb57dd3c3c2b66a4933cf52eedcf885a1781850018f3275e7a620305f3", 647},
    {"651645a94c5d6ab652439b307091671734d4fa002b56465e7d72b68c06025dc7", 1739},
    {"2a8979b423a009a5969efc4f4e8ccbd80e8f6e73221f8a128c4eab3a8da42b2a", 2453},
    {"c1cc593dc75ea72de42799a101c12b996714d93903590c2e327c0f729835b2d8", 4354},
    {"d6c603a03c6702bbe97ce9f75d889f428ed7d612c6b0f394439bdd061a23bb27", 1696},
    {"d4476d0004f7baa018458653642e1e563c4822126b95333d5e87016c94ca1d0f", 2845},
};

// Full corpus x {1, 2, 4, 8} workers, hashes compared byte for byte, and
// the workers=1 run against the pinned table. The whole product runs in
// well under a second; no sampling needed.
TEST(WorkersDeterminism, CorpusTraceHashesIdenticalAcrossWorkerCounts) {
  for (std::uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
    // Legacy (non-extended) generation, matching fuzz --hash-batch: this
    // suite doubles as the long-lived trace-equivalence baseline.
    const Scenario s = generate_scenario(seed, false);
    RunOptions opts;
    opts.workers = 1;
    const RunResult base = run_scenario(s, opts);
    const PinnedTrace& pinned = kPinnedCorpus[seed - 1];
    EXPECT_EQ(base.trace_hash, pinned.trace_hash) << "seed " << seed;
    EXPECT_EQ(base.sends, pinned.sends) << "seed " << seed;
    for (const std::size_t workers : kWorkerCounts) {
      opts.workers = workers;
      const RunResult r = run_scenario(s, opts);
      EXPECT_EQ(r.trace_hash, base.trace_hash)
          << "seed " << seed << " diverged at workers=" << workers;
      EXPECT_EQ(r.sends, base.sends)
          << "seed " << seed << " send count diverged at workers=" << workers;
    }
  }
}

// Same contract on the byte-level canonical trace dump (not just its
// hash), for one representative scenario per protocol family.
TEST(WorkersDeterminism, CanonicalDumpsIdenticalAcrossWorkerCounts) {
  std::vector<std::uint64_t> picked;
  bool have_hermes = false;
  bool have_gossip = false;
  for (std::uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
    const Scenario s = generate_scenario(seed, false);
    if (s.hermes() && !have_hermes) {
      have_hermes = true;
      picked.push_back(seed);
    } else if (!s.hermes() && !have_gossip) {
      have_gossip = true;
      picked.push_back(seed);
    }
  }
  ASSERT_FALSE(picked.empty());
  for (const std::uint64_t seed : picked) {
    const Scenario s = generate_scenario(seed, false);
    RunOptions opts;
    opts.collect_trace_dump = true;
    opts.workers = 1;
    const std::string base = run_scenario(s, opts).trace_dump;
    ASSERT_FALSE(base.empty()) << "seed " << seed;
    for (const std::size_t workers : kWorkerCounts) {
      opts.workers = workers;
      EXPECT_EQ(run_scenario(s, opts).trace_dump, base)
          << "seed " << seed << " dump diverged at workers=" << workers;
    }
  }
}

// workers = 0 (auto, hardware concurrency) is also on the contract.
TEST(WorkersDeterminism, AutoWorkersMatchesSingleThread) {
  const Scenario s = generate_scenario(1, false);
  RunOptions opts;
  opts.workers = 1;
  const std::string base = run_scenario(s, opts).trace_hash;
  opts.workers = 0;
  EXPECT_EQ(run_scenario(s, opts).trace_hash, base);
}

// Extended scenarios carrying sustained multi-tx load (and usually
// mempool pressure) are on the same contract: hundreds of in-flight
// transactions across shards must not open a worker-visible race.
TEST(WorkersDeterminism, LoadedScenariosIdenticalAcrossWorkerCounts) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 16 && checked < 2; ++seed) {
    const Scenario s = generate_scenario(seed);
    if (!s.has_load()) continue;
    ++checked;
    RunOptions opts;
    opts.workers = 1;
    const RunResult base = run_scenario(s, opts);
    ASSERT_FALSE(base.trace_hash.empty()) << "seed " << seed;
    for (const std::size_t workers : {2, 4}) {
      opts.workers = workers;
      const RunResult r = run_scenario(s, opts);
      EXPECT_EQ(r.trace_hash, base.trace_hash)
          << "loaded seed " << seed << " diverged at workers=" << workers;
      EXPECT_EQ(r.sends, base.sends) << "loaded seed " << seed;
    }
  }
  EXPECT_GE(checked, 1u) << "no loaded scenario in the sampled range";
}

}  // namespace
}  // namespace hermes::fuzz
