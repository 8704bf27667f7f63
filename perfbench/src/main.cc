// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans FILE]
//
// Repeats one workload iteration (setup, fixed work, teardown) untraced for
// S seconds (at least three times) and reports medians. Then it runs one
// traced reference pass, which mirrors an iteration through public pieces
// with spans around every layer call, and checks every iteration's output
// against it. --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer ones; the last stdout line is the JSON result.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.hh"
#include "util/cli.hh"

using namespace perfbench;

namespace {

struct Sample {
  double setup_s = 0.0;
  double wall_s = 0.0;
  Usage usage;
};

/// Every per-layer metric, in output order. Layers a workload does not
/// exercise report 0 (no spans, no counts).
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const auto catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"scenario.materialize_ms", "ms"}};
    for (const char* stage : {"build", "run", "finish"}) {
      const std::string base = std::string{"runner."} + stage + "_ms";
      c.push_back({base + ".count", "count"});
      c.push_back({base + ".p50", "ms"});
      c.push_back({base + ".tail", "ms"});
      c.push_back({base + ".total", "ms"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"network.events", "count"},
        {"network.components", "count"},
        {"network.ns_per_event", "ns"},
        {"shard.plan_ms", "ms"},
        {"shard.lookahead_ms", "ms"},
        {"shard.windows", "count"},
        {"shard.cut_links", "count"},
        {"shard.load_imbalance", "ratio"},
        {"shard.speedup", "ratio"},
        {"aqm.drops", "count"},
        {"aqm.ecn_marks", "count"},
        {"aqm.peak_queue_pkts", "count"},
        {"aqm.drop_ratio", "ratio"},
        {"delay.peak_in_transit", "count"},
        {"transport.packets_sent", "count"},
        {"transport.retx_ratio", "ratio"},
        {"transport.timeouts", "count"},
        {"transport.ns_per_packet", "ns"}};
    c.insert(c.end(), rest.begin(), rest.end());
    for (const char* scheme :
         {"newreno", "vegas", "cubic", "compound", "cubic-sfqcodel", "xcp",
          "remy-d0_1", "remy-d1", "remy-d10", "dctcp"}) {
      c.push_back({std::string{"cc."} + scheme + ".run_ms", "ms"});
      c.push_back({std::string{"cc."} + scheme + ".ns_per_packet", "ns"});
    }
    const std::vector<std::pair<std::string, std::string>> tail = {
        {"evaluator.construct_ms", "ms"},
        {"evaluator.evaluate_ms.count", "count"},
        {"evaluator.evaluate_ms.p50", "ms"},
        {"evaluator.evaluate_ms.tail", "ms"},
        {"evaluator.specimen_ms", "ms"},
        {"evaluator.specimen_imbalance", "ratio"},
        {"trainer.self_ms", "ms"},
        {"trainer.edges", "count"},
        {"workers.fork_ms", "ms"},
        {"workers.score_batch_ms", "ms"},
        {"workers.retries", "count"},
        {"workers.respawns", "count"},
        {"workers.in_process", "count"},
        {"workers.degraded", "count"},
        {"workers.useful_ratio", "ratio"},
        {"process.sys_s", "s"},
        {"process.minor_faults", "count"},
        {"process.vcsw", "count"},
        {"process.ivcsw", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.unattributed_ms", "ms"}};
    c.insert(c.end(), tail.begin(), tail.end());
    return c;
  }();
  return catalog;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "scenarios") return make_scenarios(o);
  if (o.workload == "training") return make_training(o);
  return nullptr;
}

/// The build this binary came from, for the result stamp.
const char* sanitizer_mode() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

template <typename F>
double median_of(const std::vector<Sample>& samples, F&& field) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(field(s));
  return median(v);
}

void print_json(bool correct, const Ledger& ledger, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  const char* sep = "";
  for (const auto& [name, vu] : metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), vu.first, vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  Options o;
  o.workload = cli.get("workload", std::string{});
  o.seed = static_cast<std::uint64_t>(cli.get("seed", std::int64_t{1}));
  o.seconds = cli.get("seconds", 10.0);
  o.trace = cli.get("trace", std::int64_t{0}) != 0;
  o.smoke = cli.get("smoke", false);
  const std::string spans_path = cli.get("spans", std::string{});
  std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr || o.seed == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload scenarios|training --seed N>=1 "
                 "--seconds S "
                 "--trace 0|1 [--smoke] [--spans FILE]\n");
    return 2;
  }

  std::string compiler = PERFBENCH_COMPILER;
  for (char& ch : compiler) {
    if (ch == ' ') ch = '_';
  }
  std::printf("build: compiler=%s build_type=%s sanitizer=%s\n",
              compiler.c_str(), PERFBENCH_BUILD_TYPE, sanitizer_mode());

  // Untraced iterations. A traced run spends half its budget here: it needs
  // the untraced wall time for trace.overhead_ratio and the process counters.
  Ledger ledger;
  std::vector<Sample> samples;
  std::vector<Output> outputs;
  const double budget = o.smoke ? 0.0 : o.trace ? o.seconds / 2 : o.seconds;
  const std::size_t min_iterations = o.smoke ? 1 : 3;
  const double start = now_s();
  double peak_mb = 0.0;
  while (samples.size() < min_iterations || now_s() - start < budget) {
    Sample s;
    const Usage u0 = Usage::now();
    const double t0 = now_s();
    try {
      w->setup();
      const double t1 = now_s();
      outputs.push_back(w->run(ledger));
      s.wall_s = now_s() - t1;
      s.setup_s = t1 - t0;
      w->teardown();
    } catch (const std::exception& e) {
      ledger.check(false, 1, std::string{"iteration threw: "} + e.what());
      ++ledger.attempted;
      w->teardown();
      break;
    }
    s.usage = Usage::now() - u0;
    samples.push_back(s);
    // Peak memory over a fixed amount of work, so that a faster build that
    // fits more iterations into the budget is not charged for them.
    if (samples.size() == min_iterations) peak_mb = peak_rss_mb();
  }
  if (samples.size() < min_iterations) peak_mb = peak_rss_mb();

  Spans spans;
  Metrics layers;
  for (const auto& [name, unit] : layer_catalog()) layers.set(name, 0.0, unit);
  Reference ref;
  try {
    ref = w->reference(spans, layers, ledger);
    ledger.attempted += ops_of(ref.output);
    for (const Output& out : outputs) {
      ledger.attempted += ops_of(out);
      compare_outputs(ledger, ref.output, out, "untraced vs traced");
    }
    w->cross_check(ref.output, ledger);
  } catch (const std::exception& e) {
    ledger.check(false, 1, std::string{"reference pass threw: "} + e.what());
    ++ledger.attempted;
  }
  for (const std::string& p : ledger.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }

  const double setup_s = median_of(samples, [](const Sample& s) { return s.setup_s; });
  const double wall_s = median_of(samples, [](const Sample& s) { return s.wall_s; });
  const double work_per_s = wall_s > 0.0 ? ref.work / wall_s : 0.0;
  const double error_rate =
      ledger.attempted > 0 ? static_cast<double>(ledger.failed) /
                                 static_cast<double>(ledger.attempted)
                           : 1.0;

  Metrics e2e;
  e2e.set("setup_s", setup_s, "s");
  e2e.set("wall_s", wall_s, "s");
  e2e.set("cpu_s", median_of(samples, [](const Sample& s) {
            return s.usage.user_s + s.usage.sys_s;
          }), "s");
  e2e.set("peak_rss_mb", peak_mb, "MB");
  e2e.set("work_per_s", work_per_s, "1/s");

  layers.set("process.sys_s",
             median_of(samples, [](const Sample& s) { return s.usage.sys_s; }),
             "s");
  layers.set("process.minor_faults",
             median_of(samples, [](const Sample& s) { return s.usage.minflt; }),
             "count");
  layers.set("process.vcsw",
             median_of(samples, [](const Sample& s) { return s.usage.nvcsw; }),
             "count");
  layers.set("process.ivcsw",
             median_of(samples, [](const Sample& s) { return s.usage.nivcsw; }),
             "count");
  layers.set("trace.overhead_ratio",
             setup_s + wall_s > 0.0 ? ref.mirror_s / (setup_s + wall_s) : 0.0,
             "ratio");

  // Human-readable summary: all eight end-to-end metrics by name and unit.
  const bool sim = std::string{w->work_name()} == "events";
  std::printf("perfbench %s seed=%llu iterations=%zu checks=%llu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              samples.size(), static_cast<unsigned long long>(ledger.checks));
  for (const auto& [name, vu] : e2e.items()) {
    if (name == "work_per_s") continue;
    std::printf("  %-18s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("  %-18s %.6g count\n", "minor_faults",
              layers.get("process.minor_faults"));
  std::printf("  %-18s %.6g 1/s\n", sim ? "sim_events_per_s" : "candidates_per_s",
              work_per_s);
  std::printf("  %-18s %s\n", sim ? "candidates_per_s" : "sim_events_per_s",
              "n/a (not this workload's unit of work)");
  std::printf("  %-18s", "wall_s per iter");
  for (const Sample& s : samples) std::printf(" %.4g", s.wall_s);
  std::printf("\n  %-18s %.6g ratio (%llu of %llu operations failed)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));

  if (!spans_path.empty()) spans.write_json(spans_path);

  const bool correct =
      ledger.failed == 0 && ledger.checks > 0 && ledger.attempted > 0;
  Metrics out;
  if (o.trace) {
    for (const auto& [name, unit] : layer_catalog()) {
      out.set(name, layers.get(name), unit);
    }
  } else {
    out = e2e;
  }
  print_json(correct, ledger, out);
  return 0;
}
