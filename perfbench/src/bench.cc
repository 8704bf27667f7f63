#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans ------------------------------------------------------------------

namespace {
thread_local Spans::Id t_current = Spans::kNone;
}  // namespace

Spans::Id Spans::begin(std::string name, Id parent, std::uint64_t op) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock{mutex_};
  records_.push_back(Record{std::move(name), t, t, parent, op});
  return static_cast<Id>(records_.size() - 1);
}

void Spans::end(Id id) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock{mutex_};
  records_.at(id).end_s = t;
}

std::vector<Spans::Record> Spans::records() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return records_;
}

std::vector<double> Spans::durations_ms(std::string_view name) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back((r.end_s - r.start_s) * 1e3);
  }
  return out;
}

double Spans::total_ms(std::string_view name) const {
  double sum = 0.0;
  for (const double d : durations_ms(name)) sum += d;
  return sum;
}

double Spans::duration_ms(Id id) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const Record& r = records_.at(id);
  return (r.end_s - r.start_s) * 1e3;
}

double Spans::self_ms(Id id) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const Record& self = records_.at(id);
  // Children may overlap (parallel candidates), so subtract their union.
  std::vector<std::pair<double, double>> kids;
  for (const Record& r : records_) {
    if (r.parent == id) kids.emplace_back(r.start_s, r.end_s);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  for (const auto& [s, e] : kids) {
    if (s > hi) {
      if (hi > lo) covered += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) covered += hi - lo;
  return (self.end_s - self.start_s - covered) * 1e3;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
  const std::vector<Record> all = records();
  const double t0 = all.empty() ? 0.0 : all.front().start_s;
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Record& r = all[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%lld,\"op\":%llu,\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"name\":",
                  i, r.parent == kNone ? -1LL : static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.op),
                  (r.start_s - t0) * 1e3, (r.end_s - t0) * 1e3);
    out << line << '"' << r.name << "\"}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

Span::Span(Spans* spans, std::string name, std::uint64_t op, Spans::Id parent)
    : spans_{spans}, saved_{t_current} {
  id_ = spans_->begin(std::move(name), parent == kInherit ? t_current : parent,
                      op);
  t_current = id_;
}

Span::~Span() {
  spans_->end(id_);
  t_current = saved_;
}

// ---- process counters -------------------------------------------------------

namespace {
double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

Usage Usage::now() {
  Usage u;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage r{};
    getrusage(who, &r);
    u.user_s += seconds_of(r.ru_utime);
    u.sys_s += seconds_of(r.ru_stime);
    u.minflt += static_cast<double>(r.ru_minflt);
    u.nvcsw += static_cast<double>(r.ru_nvcsw);
    u.nivcsw += static_cast<double>(r.ru_nivcsw);
  }
  return u;
}

Usage Usage::operator-(const Usage& o) const {
  return Usage{user_s - o.user_s, sys_s - o.sys_s, minflt - o.minflt,
               nvcsw - o.nvcsw, nivcsw - o.nivcsw};
}

double peak_rss_mb() {
  // VmHWM, not RUSAGE_SELF's ru_maxrss: the latter survives exec and so
  // would report the launching process's peak when that was larger.
  long self_kb = 0;
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

// ---- ledger -----------------------------------------------------------------

void Ledger::check(bool ok, std::uint64_t ops, const std::string& what) {
  ++checks;
  if (!ok) {
    failed += ops;
    problems.push_back(what);
  }
}

std::uint64_t ops_of(const Output& out) {
  std::uint64_t n = 0;
  for (const OpGroup& g : out) n += g.ops;
  return n;
}

void compare_outputs(Ledger& ledger, const Output& want, const Output& got,
                     const std::string& what) {
  if (want.size() != got.size()) {
    ledger.check(false, ops_of(got), what + ": output shape differs");
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ledger.check(want[i] == got[i], got[i].ops,
                 what + ": " + got[i].label + " differs from the reference");
  }
}

Digest& Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
  return *this;
}

// ---- metrics ----------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second].second = {value, unit};
    return;
  }
  index_.emplace(name, items_.size());
  items_.push_back({name, {value, unit}});
}

double Metrics::get(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0.0 : items_[it->second].second.first;
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  set(name, get(name) + value, unit);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}
}  // namespace

void add_distribution(Metrics& m, const std::string& base,
                      std::vector<double> ms, bool with_total) {
  std::sort(ms.begin(), ms.end());
  double total = 0.0;
  for (const double x : ms) total += x;
  double tail = ms.empty() ? 0.0 : ms.back();
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(ms.size()) * (1.0 - q) >= 10.0) {
      tail = quantile(ms, q);
      break;
    }
  }
  m.set(base + ".count", static_cast<double>(ms.size()), "count");
  m.set(base + ".p50", ms.empty() ? 0.0 : quantile(ms, 0.5), "ms");
  m.set(base + ".tail", tail, "ms");
  if (with_total) m.set(base + ".total", total, "ms");
}

}  // namespace perfbench
