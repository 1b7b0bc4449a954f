#ifndef VOCBENCH_HARNESS_H_
#define VOCBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: command-line parsing,
// raw-sample latency recording, the open-loop load generator, the
// in-memory span tracer and the result printer. Nothing here knows
// about the engine, so the self-tests exercise it without one.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vocbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Parses `--workload W --seed N --seconds S --trace 0|1`. Returns false
// with a message on anything else.
bool ParseArgs(int argc, char** argv, Args* out, std::string* error);

// Latency samples kept raw, so every quantile is exact at any
// resolution (the engine's histogram floors at 50 us).
class LatencySamples {
 public:
  void Add(double ms) { samples_.push_back(ms); }
  void Merge(const LatencySamples& other);
  std::size_t count() const { return samples_.size(); }
  // Nearest-rank quantile: the smallest sample with at least q of the
  // samples at or below it. 0 when empty.
  double Quantile(double q) const;
  double Mean() const;
  double Max() const;
  // Samples strictly above the q-quantile (how well the tail is
  // resolved; a percentile is trustworthy with >= 10 beyond it).
  std::size_t CountAbove(double q) const;

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable std::size_t sorted_size_ = 0;
  const std::vector<double>& Sorted() const;
};

// Constant-arrival-rate load: request i is due at start + i / rate.
// `senders` threads each take the next due slot, sleep until it is due
// and run it. Latency is measured from the due time, so a stall makes
// every request scheduled behind it late (no coordinated omission).
struct OpenLoopResult {
  LatencySamples latency_ms;   // completion - due
  LatencySamples late_ms;      // actual send - due
  std::vector<double> latency_by_slot_ms;  // -1 for slots never sent
  std::size_t scheduled = 0;
  std::size_t sent = 0;
  std::size_t failed = 0;      // errors plus slots never sent
  double elapsed_s = 0;        // first due time to last completion
  double offered_rps = 0;
  double AchievedOverOffered() const;
};
// `issue(slot, sender)` runs one request and returns false on failure.
OpenLoopResult RunOpenLoop(double rate_per_s, double seconds,
                           std::size_t senders,
                           const std::function<bool(std::size_t, std::size_t)>&
                               issue);

// Closed loop: `clients` threads each issue back-to-back for `seconds`.
struct ClosedLoopResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  double elapsed_s = 0;
  double Rps() const {
    return elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0;
  }
};
ClosedLoopResult RunClosedLoop(double seconds, std::size_t clients,
                               const std::function<bool(std::size_t,
                                                        std::size_t)>& issue);

// One traced interval. Spans of one batch or request share `id`;
// `parent` is the index of the enclosing span (-1 for a root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t id = 0;
  double DurationMs() const { return (end_ns - start_ns) / 1e6; }
  double DurationUs() const { return (end_ns - start_ns) / 1e3; }
};

// Spans held in memory and written once at exit. Thread-safe.
class Tracer {
 public:
  int64_t Begin(std::string name, int64_t parent, uint64_t id);
  void End(int64_t handle);
  // Records an interval measured elsewhere.
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t id);
  std::vector<Span> spans() const;
  // One JSON object per span, one span per line.
  bool WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent, uint64_t id)
      : tracer_(tracer),
        handle_(tracer ? tracer->Begin(std::move(name), parent, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t handle_;
};

// Splits each root span's wall time among its direct children: every
// instant is shared equally by the children running at that instant,
// and instants no child covers go to "" (the root's self time: its
// duration minus the part its children cover). Summed
// over all roots named `root`, keyed by child name. The values add up
// to the roots' total duration exactly.
std::map<std::string, double> WallShareMs(const std::vector<Span>& spans,
                                          const std::string& root);

// Peak resident set (VmHWM) and current thread count of this process.
double PeakRssMb();
int ThreadCount();

// Median of a small sample (0 when empty).
double Median(std::vector<double> values);

// Collects metrics and prints them: one human-readable line each, then
// the final JSON object as the last line of standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  void Note(const std::string& line);
  // Prints every metric, then the JSON line carrying `json_metrics`
  // (name, unit); the others appear only in the readable lines.
  void Print(bool correct, std::size_t attempted, std::size_t failed,
             const std::vector<std::pair<std::string, std::string>>&
                 json_metrics) const;
  bool Has(const std::string& name) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

// Fails the run (correct=false) when `ok` is false; prints the reason.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  std::size_t failures_ = 0;
};

}  // namespace vocbench

#endif  // VOCBENCH_HARNESS_H_
