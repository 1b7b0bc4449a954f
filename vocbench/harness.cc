#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace vocbench {

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(out->seconds > 0) ||
          out->seconds > 600) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "bad --trace " + value;
        return false;
      }
      out->trace = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

// --- latency samples ---------------------------------------------------

void LatencySamples::Merge(const LatencySamples& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

const std::vector<double>& LatencySamples::Sorted() const {
  if (sorted_size_ != samples_.size() || sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_size_ = samples_.size();
  }
  return sorted_;
}

double LatencySamples::Quantile(double q) const {
  if (samples_.empty()) return 0;
  const std::vector<double>& s = Sorted();
  const double rank = std::ceil(q * static_cast<double>(s.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double LatencySamples::Mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double LatencySamples::Max() const {
  return samples_.empty() ? 0 : Sorted().back();
}

std::size_t LatencySamples::CountAbove(double q) const {
  if (samples_.empty()) return 0;
  const double cut = Quantile(q);
  const std::vector<double>& s = Sorted();
  return static_cast<std::size_t>(
      s.end() - std::upper_bound(s.begin(), s.end(), cut));
}

// --- load generators ----------------------------------------------------

double OpenLoopResult::AchievedOverOffered() const {
  if (elapsed_s <= 0 || offered_rps <= 0) return 0;
  return (static_cast<double>(sent) / elapsed_s) / offered_rps;
}

OpenLoopResult RunOpenLoop(
    double rate_per_s, double seconds, std::size_t senders,
    const std::function<bool(std::size_t, std::size_t)>& issue) {
  OpenLoopResult out;
  out.offered_rps = rate_per_s;
  const std::size_t total =
      static_cast<std::size_t>(std::floor(rate_per_s * seconds));
  out.scheduled = total;
  out.latency_by_slot_ms.assign(total, -1);
  const double interval_ns = 1e9 / rate_per_s;
  const int64_t start = NowNs() + 2'000'000;
  // A generator that falls this far behind stops sending; every slot it
  // never sent counts as failed, so an overload cannot stretch the run.
  const int64_t give_up =
      start + static_cast<int64_t>((seconds * 1.25 + 0.5) * 1e9);
  std::atomic<std::size_t> next{0};
  std::atomic<int64_t> last_done{start};
  std::vector<OpenLoopResult> per(senders);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      OpenLoopResult& mine = per[s];
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
        int64_t now = NowNs();
        if (now > give_up) {
          ++mine.failed;
          continue;
        }
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = NowNs();
        }
        const bool ok = issue(i, s);
        const int64_t done = NowNs();
        mine.late_ms.Add(static_cast<double>(std::max<int64_t>(0, now - due)) /
                         1e6);
        mine.latency_ms.Add(static_cast<double>(done - due) / 1e6);
        out.latency_by_slot_ms[i] = static_cast<double>(done - due) / 1e6;
        ++mine.sent;
        if (!ok) ++mine.failed;
        int64_t prev = last_done.load();
        while (done > prev && !last_done.compare_exchange_weak(prev, done)) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const OpenLoopResult& p : per) {
    out.latency_ms.Merge(p.latency_ms);
    out.late_ms.Merge(p.late_ms);
    out.sent += p.sent;
    out.failed += p.failed;
  }
  out.elapsed_s = static_cast<double>(last_done.load() - start) / 1e9;
  return out;
}

ClosedLoopResult RunClosedLoop(
    double seconds, std::size_t clients,
    const std::function<bool(std::size_t, std::size_t)>& issue) {
  ClosedLoopResult out;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < deadline) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (!issue(i, c)) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  // Every claimed slot was issued and has completed.
  out.completed = next.load();
  out.failed = failed.load();
  return out;
}

// --- tracing ------------------------------------------------------------

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t handle) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(handle)].end_ns = now;
}

int64_t Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

std::vector<std::vector<std::size_t>> ChildrenOf(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  return children;
}

}  // namespace

std::map<std::string, double> WallShareMs(const std::vector<Span>& spans,
                                          const std::string& root) {
  const auto children = ChildrenOf(spans);
  std::map<std::string, double> share_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& r = spans[i];
    if (r.parent != -1 || r.name != root) continue;
    // (time, +1/-1, child name) events clipped to the root's interval.
    struct Event {
      int64_t t;
      int delta;
      const std::string* name;
    };
    std::vector<Event> events;
    for (std::size_t c : children[i]) {
      const int64_t a = std::max(r.start_ns, spans[c].start_ns);
      const int64_t b = std::min(r.end_ns, spans[c].end_ns);
      if (b <= a) continue;
      events.push_back({a, +1, &spans[c].name});
      events.push_back({b, -1, &spans[c].name});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& x, const Event& y) { return x.t < y.t; });
    std::map<std::string, int> active;
    int total_active = 0;
    int64_t t = r.start_ns;
    auto credit = [&](int64_t until) {
      const double dt = static_cast<double>(until - t);
      if (dt <= 0) return;
      if (total_active == 0) {
        share_ns[""] += dt;
      } else {
        for (const auto& [name, n] : active) {
          if (n > 0) share_ns[name] += dt * n / total_active;
        }
      }
    };
    for (const Event& e : events) {
      credit(e.t);
      t = std::max(t, e.t);
      active[*e.name] += e.delta;
      total_active += e.delta;
    }
    credit(r.end_ns);
  }
  std::map<std::string, double> out;
  for (const auto& [name, ns] : share_ns) out[name] = ns / 1e6;
  return out;
}

// --- process stats ------------------------------------------------------

namespace {

long StatusField(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return static_cast<double>(StatusField("VmHWM")) / 1024; }
int ThreadCount() { return static_cast<int>(StatusField("Threads")); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- reporting ----------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) value = 0;
  if (!entries_.count(name)) order_.push_back(name);
  entries_[name] = Entry{value, unit, samples};
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

bool Report::Has(const std::string& name) const {
  return entries_.count(name) > 0;
}

void Report::Print(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<std::pair<std::string, std::string>>& json_metrics)
    const {
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::printf("metric %-36s %14.6f %-6s n=%zu\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, unit] : json_metrics) {
    auto it = entries_.find(name);
    const double value = it == entries_.end() ? 0 : it->second.value;
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

}  // namespace vocbench
