#ifndef KBCBENCH_LEDGER_H_
#define KBCBENCH_LEDGER_H_

// Benchmark-owned spans for the traced run. Every call into a layer's
// public entry point is wrapped in one Span named after the layer's
// metric ("grounding.ground", "serve.publish", ...). Spans are kept in
// memory and summed when the run ends; the traced run is sequential, so
// spans never overlap and their sum can be checked against wall time
// (the ledger: time outside every span is unattributed).

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace kbcbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Ledger {
 public:
  struct Record {
    const char* layer;  ///< string literal naming the layer span
    Clock::time_point start;
    Clock::time_point end;
  };

  /// RAII span around one layer call. A null ledger records nothing, so
  /// the same code path serves the untraced replay used in setup.
  class Span {
   public:
    Span(Ledger* ledger, const char* layer)
        : ledger_(ledger), layer_(layer), start_(Clock::now()) {}
    ~Span() {
      if (ledger_ != nullptr) {
        ledger_->records_.push_back(Record{layer_, start_, Clock::now()});
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;
    const char* layer_;
    Clock::time_point start_;
  };

  /// Seconds per layer name, summed over its spans.
  std::map<std::string, double> LayerSeconds() const {
    std::map<std::string, double> out;
    for (const Record& r : records_) out[r.layer] += SecondsBetween(r.start, r.end);
    return out;
  }

  /// Seconds covered by any span.
  double CoveredSeconds() const {
    double total = 0;
    for (const Record& r : records_) total += SecondsBetween(r.start, r.end);
    return total;
  }

 private:
  std::vector<Record> records_;
};

}  // namespace kbcbench

#endif  // KBCBENCH_LEDGER_H_
