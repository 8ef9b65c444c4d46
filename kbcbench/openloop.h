#ifndef KBCBENCH_OPENLOOP_H_
#define KBCBENCH_OPENLOOP_H_

// Open-loop query load against a KbcServer. Requests are due on a fixed
// schedule (rate_qps, spread over `clients` threads) whether or not
// earlier ones have returned, and each latency is timed from the
// request's *due* time, so a stall charges its wait to every request
// queued behind it. `late` is how far the generator itself ran behind
// the schedule when it sent.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace kbcbench {

struct QueryTarget {
  std::string relation;
  int64_t rows = 1;  ///< facts are drawn from [0, rows * 1.05): some miss
};

struct OpenLoopOptions {
  double rate_qps = 2000;
  size_t clients = 2;
  uint64_t seed = 1;
  double deadline_ms = 50;
  std::vector<QueryTarget> targets;
};

struct OpenLoopReport {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t not_found = 0;  ///< misses in the row space count as answered
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;
  bool epochs_monotone = true;
  std::vector<double> latency_us;  ///< answered requests, from due time
  std::vector<double> due_s;       ///< due time of each latency_us entry
  std::vector<double> late_us;     ///< send time minus due time
  bool Accounted() const {
    return issued == ok + not_found + shed + deadline + errors;
  }
  uint64_t answered() const { return ok + not_found; }
  void Merge(const OpenLoopReport& other);
};

class OpenLoop {
 public:
  /// Starts the client threads; load runs until Stop().
  OpenLoop(dd::KbcServer* server, OpenLoopOptions options);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Stops the clients, joins them, and returns the merged report.
  OpenLoopReport Stop();

 private:
  void ClientLoop(size_t client, OpenLoopReport* report);

  dd::KbcServer* server_;
  OpenLoopOptions options_;
  std::atomic<bool> stop_{false};
  std::vector<OpenLoopReport> reports_;
  std::vector<std::thread> threads_;  // declared last: uses the members above
};

/// q-quantile (0..1) of `values` by linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace kbcbench

#endif  // KBCBENCH_OPENLOOP_H_
