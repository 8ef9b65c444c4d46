#include "openloop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>

#include "util/deadline.h"
#include "util/rng.h"

#include "ledger.h"

namespace kbcbench {

void OpenLoopReport::Merge(const OpenLoopReport& other) {
  issued += other.issued;
  ok += other.ok;
  not_found += other.not_found;
  shed += other.shed;
  deadline += other.deadline;
  errors += other.errors;
  epochs_monotone = epochs_monotone && other.epochs_monotone;
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  due_s.insert(due_s.end(), other.due_s.begin(), other.due_s.end());
  late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
}

OpenLoop::OpenLoop(dd::KbcServer* server, OpenLoopOptions options)
    : server_(server), options_(std::move(options)), reports_(options_.clients) {
  for (size_t c = 0; c < options_.clients; ++c) {
    threads_.emplace_back(&OpenLoop::ClientLoop, this, c, &reports_[c]);
  }
}

OpenLoop::~OpenLoop() { Stop(); }

OpenLoopReport OpenLoop::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  OpenLoopReport merged;
  for (const OpenLoopReport& r : reports_) merged.Merge(r);
  return merged;
}

void OpenLoop::ClientLoop(size_t client, OpenLoopReport* report) {
  // Sleep with 1 ns timer slack and spin the last stretch, so the send
  // lands on its due time instead of the kernel's default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  constexpr auto kSpin = std::chrono::microseconds(100);
  dd::Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + client + 1);
  const std::chrono::duration<double> period(
      static_cast<double>(options_.clients) / options_.rate_qps);
  const Clock::time_point t0 =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         period * (static_cast<double>(client) /
                                   static_cast<double>(options_.clients)));
  uint64_t last_epoch = 0;
  for (uint64_t k = 0; !stop_.load(std::memory_order_relaxed); ++k) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 period * static_cast<double>(k));
    if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    if (stop_.load(std::memory_order_relaxed)) break;

    dd::QueryRequest request;
    const uint64_t kind = rng.NextBounded(12);  // marginal 8 : fact 3 : top-k 1
    request.kind = kind < 8    ? dd::QueryKind::kMarginal
                   : kind < 11 ? dd::QueryKind::kFact
                               : dd::QueryKind::kTopK;
    const QueryTarget& target =
        options_.targets[rng.NextBounded(options_.targets.size())];
    request.relation = target.relation;
    // 80% of reads go to a hot set of 256 facts (the cache's working
    // set), the rest anywhere in the row space, 5% past its end.
    const int64_t span = rng.NextDouble() < 0.8
                             ? std::min<int64_t>(256, target.rows)
                             : target.rows + target.rows / 20 + 1;
    request.row = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(span)));
    request.deadline = dd::Deadline::AfterMillis(options_.deadline_ms);

    const Clock::time_point sent = Clock::now();
    dd::Result<dd::QueryResponse> response = server_->Query(request);
    const Clock::time_point done = Clock::now();
    ++report->issued;
    report->late_us.push_back(SecondsBetween(due, sent) * 1e6);
    if (response.ok()) {
      ++report->ok;
      if (response->epoch < last_epoch) report->epochs_monotone = false;
      last_epoch = response->epoch;
    } else {
      switch (response.status().code()) {
        case dd::StatusCode::kNotFound: ++report->not_found; break;
        case dd::StatusCode::kUnavailable: ++report->shed; break;
        case dd::StatusCode::kDeadlineExceeded: ++report->deadline; break;
        default: ++report->errors; break;
      }
    }
    if (response.ok() || response.status().code() == dd::StatusCode::kNotFound) {
      report->latency_us.push_back(SecondsBetween(due, done) * 1e6);
      report->due_s.push_back(SecondsBetween(t0, due));
    }
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace kbcbench
