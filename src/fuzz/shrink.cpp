#include "fuzz/shrink.hpp"

#include <algorithm>
#include <utility>

namespace hermes::fuzz {

namespace {

bool same_checker(const std::vector<Failure>& failures,
                  const std::string& checker) {
  if (checker.empty()) return !failures.empty();
  return std::any_of(failures.begin(), failures.end(),
                     [&](const Failure& f) { return f.checker == checker; });
}

}  // namespace

ShrinkOutcome shrink(const Scenario& failing,
                     const std::vector<Failure>& original_failures,
                     const ShrinkOptions& opts) {
  ShrinkOutcome outcome;
  outcome.minimal = failing;
  outcome.failures = original_failures;
  const std::string checker =
      original_failures.empty() ? std::string() : original_failures.front().checker;

  // Runs `candidate`; on persistent failure adopts it as the new minimum.
  const auto try_accept = [&](Scenario candidate) {
    if (outcome.runs >= opts.max_runs) return false;
    ++outcome.runs;
    RunResult result = run_scenario(candidate, opts.run);
    if (!same_checker(result.failures, checker)) return false;
    outcome.minimal = std::move(candidate);
    outcome.failures = std::move(result.failures);
    ++outcome.removed;
    return true;
  };

  bool progress = true;
  while (progress && outcome.runs < opts.max_runs) {
    progress = false;
    Scenario& cur = outcome.minimal;

    if (!cur.partitions.empty()) {
      Scenario candidate = cur;
      candidate.partitions.clear();
      progress |= try_accept(std::move(candidate));
    }
    if (!cur.churn.empty()) {
      Scenario candidate = cur;
      candidate.churn.clear();
      progress |= try_accept(std::move(candidate));
    }
    // Drop churn events one at a time, newest first (a recover without its
    // crash is a harmless no-op, so any single removal stays well-formed).
    for (std::size_t i = cur.churn.size(); i-- > 0;) {
      if (i >= cur.churn.size()) continue;  // list shrank under us
      Scenario candidate = cur;
      candidate.churn.erase(candidate.churn.begin() +
                            static_cast<std::ptrdiff_t>(i));
      progress |= try_accept(std::move(candidate));
    }
    if (!cur.byzantine.empty()) {
      Scenario candidate = cur;
      candidate.byzantine.clear();
      candidate.blind_blast = false;
      candidate.transit_faults = false;
      progress |= try_accept(std::move(candidate));
    }
    for (std::size_t i = cur.byzantine.size(); i-- > 0;) {
      if (i >= cur.byzantine.size()) continue;
      Scenario candidate = cur;
      candidate.byzantine.erase(candidate.byzantine.begin() +
                                static_cast<std::ptrdiff_t>(i));
      if (candidate.byzantine.empty()) {
        candidate.blind_blast = false;
        candidate.transit_faults = false;
      }
      progress |= try_accept(std::move(candidate));
    }
    for (std::size_t i = cur.injections.size(); i-- > 0;) {
      if (cur.injections.size() <= 1) break;  // keep one injection
      if (i >= cur.injections.size()) continue;
      Scenario candidate = cur;
      candidate.injections.erase(candidate.injections.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      progress |= try_accept(std::move(candidate));
    }
    for (std::size_t i = 0; i < cur.injections.size(); ++i) {
      if (cur.injections[i].batch_size == 0) continue;
      Scenario candidate = cur;
      candidate.injections[i].batch_size = 0;
      progress |= try_accept(std::move(candidate));
    }
    if (cur.drop_probability > 0.0) {
      Scenario candidate = cur;
      candidate.drop_probability = 0.0;
      progress |= try_accept(std::move(candidate));
    }
    if (cur.jitter_stddev_ms > 0.0) {
      Scenario candidate = cur;
      candidate.jitter_stddev_ms = 0.0;
      progress |= try_accept(std::move(candidate));
    }
    if (cur.transit_faults) {
      Scenario candidate = cur;
      candidate.transit_faults = false;
      progress |= try_accept(std::move(candidate));
    }
    if (cur.blind_blast) {
      Scenario candidate = cur;
      candidate.blind_blast = false;
      progress |= try_accept(std::move(candidate));
    }
    if (cur.enable_acks) {
      Scenario candidate = cur;
      candidate.enable_acks = false;
      progress |= try_accept(std::move(candidate));
    }
    if (cur.drain_ms > 4000.0) {
      Scenario candidate = cur;
      candidate.drain_ms = std::max(4000.0, cur.drain_ms / 2.0);
      progress |= try_accept(std::move(candidate));
    }
  }
  return outcome;
}

}  // namespace hermes::fuzz
