// Shared pieces of the end-to-end benchmark binary: the span recorder used
// by traced passes, process resource counters, the per-operation output
// ledger, and the metric sink the workloads fill.
//
// Spans are recorded only by this benchmark's own code, around calls into
// the simulator's public API; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace remy::bench {}
namespace remy::cc {}
namespace remy::core {}
namespace remy::sim {}
namespace remy::util {}

namespace perfbench {

namespace bench = remy::bench;
namespace cc = remy::cc;
namespace core = remy::core;
namespace sim = remy::sim;
namespace util = remy::util;

double now_s();  ///< steady-clock seconds since an arbitrary epoch

// ---- spans ------------------------------------------------------------------

/// In-memory span store. Each span has a name, start, end, parent and the id
/// of the operation it served; spans are written out once, at the end.
/// Thread-safe: pool threads record spans under an explicit parent.
class Spans {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    Id parent = kNone;
    std::uint64_t op = 0;
  };

  Id begin(std::string name, Id parent, std::uint64_t op);
  void end(Id id);

  /// Snapshot of every span (call after all recording threads are done).
  std::vector<Record> records() const;

  /// Durations in ms of every span with this name, in record order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Sum of durations_ms(name).
  double total_ms(std::string_view name) const;
  /// Duration of `id` minus the part of it its children cover, in ms.
  double self_ms(Id id) const;
  double duration_ms(Id id) const;

  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// RAII span. The parent defaults to the innermost open span on this thread;
/// spans opened on pool threads pass their parent explicitly.
class Span {
 public:
  Span(Spans* spans, std::string name, std::uint64_t op = 0,
       Spans::Id parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Spans::Id id() const noexcept { return id_; }

  static constexpr Spans::Id kInherit = Spans::kNone - 1;

 private:
  Spans* spans_;
  Spans::Id id_ = Spans::kNone;
  Spans::Id saved_ = Spans::kNone;
};

// ---- process counters -------------------------------------------------------

/// getrusage of this process plus its reaped children.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;

  static Usage now();
  Usage operator-(const Usage& o) const;
};

/// Largest resident set, in MB, of this process or any reaped child.
double peak_rss_mb();

// ---- output ledger ----------------------------------------------------------

/// Operations attempted and failed. An operation is one (scheme, seed) run
/// or one scored candidate; it fails if it throws, if a worker is lost, or
/// if its output does not match the reference.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;  ///< output comparisons made
  std::vector<std::string> problems;

  /// One comparison covering `ops` operations; on mismatch they all fail.
  void check(bool ok, std::uint64_t ops, const std::string& what);
};

/// Output of one unit of work, grouped by the operations it covers: a
/// digest per (scheme, seed) run, or one digest for a whole training.
struct OpGroup {
  std::uint64_t digest = 0;
  std::uint64_t ops = 1;
  std::string label;
  friend bool operator==(const OpGroup& a, const OpGroup& b) {
    return a.digest == b.digest && a.ops == b.ops;
  }
};
using Output = std::vector<OpGroup>;

std::uint64_t ops_of(const Output& out);

/// Compares every group of `got` with `want`; mismatching groups fail.
void compare_outputs(Ledger& ledger, const Output& want, const Output& got,
                     const std::string& what);

/// FNV-1a accumulator for digests of mixed values (doubles by bit pattern).
class Digest {
 public:
  Digest& add(const void* data, std::size_t n);
  Digest& add(double v) { return add(&v, sizeof v); }
  Digest& add(std::uint64_t v) { return add(&v, sizeof v); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// ---- metrics ----------------------------------------------------------------

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  void add(const std::string& name, double value, const std::string& unit);

  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const noexcept {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
  std::map<std::string, std::size_t> index_;
};

/// count, p50, tail and total of a latency sample, as `<base>.count` etc.
/// The tail is the highest of p99.9/p99/p90 with at least ten samples beyond
/// it, else the maximum.
void add_distribution(Metrics& m, const std::string& base,
                      std::vector<double> ms, bool with_total = true);

double median(std::vector<double> v);

// ---- workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny budget: plumbing check, not a measurement
};

/// What one untimed reference pass leaves behind.
struct Reference {
  Output output;
  /// Work units of one iteration: simulator events (scenario workloads) or
  /// scored candidates (training workloads).
  double work = 0.0;
  /// Seconds of the pass that mirrors one untraced iteration (setup + work).
  double mirror_s = 0.0;
};

/// One benchmark workload. An iteration is setup() + run() + teardown();
/// setup() covers everything before the first simulation call.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  /// The fixed work. Lost workers and other in-run failures go to `ledger`.
  virtual Output run(Ledger& ledger) = 0;
  virtual void teardown() = 0;

  /// Unit of the work count: "events" or "candidates".
  virtual const char* work_name() const = 0;

  /// The traced reference pass: repeats one iteration through public
  /// pieces with spans around every layer call, fills the per-layer
  /// metrics, and runs the attribution extras (probes, shard ratios).
  virtual Reference reference(Spans& spans, Metrics& layers,
                              Ledger& ledger) = 0;

  /// Checks that depend on nothing measured: recorded golden digests at the
  /// documented seeds and cross-mode agreement.
  virtual void cross_check(const Output& reference, Ledger& ledger) = 0;
};

std::unique_ptr<Workload> make_scenarios(const Options& o);
std::unique_ptr<Workload> make_training(const Options& o);

}  // namespace perfbench
