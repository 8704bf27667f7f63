// The scenario workload: remy-run's path (spec load, make_scenario,
// run_scheme per scheme) over three shipped specs, one after another:
//
//   table1_dumbbell, table2_cellular  all nine paper schemes, one thread,
//                                     runs raised above the spec defaults;
//   incast_10000                      10 000 senders (DCTCP, NewReno) at
//                                     2 shards.
#include <cinttypes>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "bench/harness.hh"
#include "core/scheme_registry.hh"
#include "layers.hh"
#include "sim/shard/sharded_runner.hh"

namespace perfbench {
namespace {

struct TableConfig {
  std::string name;
  std::size_t runs = 0;    ///< per scheme
  std::size_t shards = 1;  ///< remy-run --shards
  /// bench::results_hash of the whole table at seed 1 and seed 2 (remy-run
  /// --runs <runs> --hash, with seed0 moved as seed_offset() does).
  std::map<std::uint64_t, std::uint64_t> golden;
};

/// --seed n moves every spec's seed0 by (n - 1) * 1000, so seed 1 is the
/// shipped spec and successive seeds draw disjoint per-run seeds.
std::uint64_t seed_offset(std::uint64_t seed) { return (seed - 1) * 1000; }

struct Table {
  core::ScenarioSpec spec;
  bench::Scenario scenario;
  std::vector<cc::SchemeHandle> schemes;
};

/// Per-run digest of a scheme's pooled points and flow summaries.
void digest_runs(const bench::SchemeSummary& s, std::size_t runs,
                 const std::string& table, Output& out) {
  std::vector<Digest> d(runs);
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const bench::FlowSummary& f = s.flows[i];
    const bench::Point& p = s.points[i];
    d.at(f.run)
        .add(static_cast<std::uint64_t>(f.flow))
        .add(p.throughput_mbps)
        .add(p.queue_delay_ms)
        .add(p.rtt_ms)
        .add(f.retransmissions)
        .add(f.timeouts)
        .add(f.bytes_delivered);
  }
  for (std::size_t r = 0; r < runs; ++r) {
    out.push_back(OpGroup{d[r].value(), 1,
                          table + "/" + s.scheme + "/run" + std::to_string(r)});
  }
}

std::string metric_scheme(std::string name) {
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name;
}

class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(std::vector<TableConfig> tables, const Options& o)
      : configs_{std::move(tables)}, options_{o} {}

  void setup() override {
    tables_.clear();
    for (const TableConfig& c : configs_) {
      tables_.push_back(load(c));
      // Each spec's first runner build: what remy-run pays before its first
      // event (for incast_10000, the 10 000-flow graph).
      const Table& t = tables_.back();
      const cc::SchemeHandle& scheme = t.schemes.front();
      const sim::ShardedRunner first{
          bench::make_run_topology(t.scenario, scheme, 0),
          [&](sim::FlowId) { return scheme.make_sender(); }, t.scenario.shards};
    }
  }

  Output run(Ledger&) override {
    Output out;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const Table& t = tables_[i];
      for (const cc::SchemeHandle& scheme : t.schemes) {
        digest_runs(bench::run_scheme(t.scenario, scheme), t.scenario.runs,
                    configs_[i].name, out);
      }
    }
    return out;
  }

  void teardown() override { tables_.clear(); }

  const char* work_name() const override { return "events"; }

  Reference reference(Spans& spans, Metrics& layers, Ledger& ledger) override {
    Reference ref;
    RunCounters single;  ///< every run on one heap, where layers are readable
    double single_run_ms = 0.0;
    std::vector<Table> tables;
    std::vector<double> table_run_ms;  ///< per spec, in the mirrored pass
    std::uint64_t op = 0;
    const double t0 = now_s();
    Spans::Id root = Spans::kNone;
    {
      const Span workload{&spans, "workload"};
      root = workload.id();
      for (const TableConfig& c : configs_) {
        {
          const Span span{&spans, "scenario.materialize"};
          tables.push_back(load(c));
        }
        Table& t = tables.back();
        table_run_ms.push_back(0.0);
        const std::uint64_t table_ops_before = ops_of(ref.output);
        bench::SpecRun spec_run{t.spec, t.scenario, {}};
        for (const cc::SchemeHandle& scheme : t.schemes) {
          bench::SchemeSummary summary{scheme.name, {}, {}};
          const std::string cc_name = "cc." + metric_scheme(scheme.name);
          for (std::size_t r = 0; r < t.scenario.runs; ++r, ++op) {
            const RunOutcome o =
                run_one(spans, t, scheme, r, op, t.scenario.shards);
            append(summary, r, o.runner_metrics);
            layers.add(cc_name + ".run_ms", o.run_ms, "ms");
            layers.add(cc_name + ".packets", o.packets_sent, "count");
            table_run_ms.back() += o.run_ms;
            if (t.scenario.shards == 1) {
              single.merge(o.counters);
              single_run_ms += o.run_ms;
            }
          }
          digest_runs(summary, t.scenario.runs, c.name, ref.output);
          spec_run.results.push_back(std::move(summary));
        }
        finish_spec(spec_run, t.schemes);
        hashes_[c.name] = {bench::results_hash(bench::results_json(spec_run)),
                           ops_of(ref.output) - table_ops_before};
      }
    }
    ref.mirror_s = now_s() - t0;
    layers.set("trace.unattributed_ms", spans.self_ms(root), "ms");

    // Attribution extras, outside the mirrored pass: every run of a sharded
    // spec again on one heap, for the layer readings a sharded runner hides,
    // the shard speedup, and a 1-vs-N output equivalence check.
    double sharded_ms = 0.0;
    double unsharded_ms = 0.0;
    for (std::size_t i = 0; i < tables.size(); ++i) {
      const Table& t = tables[i];
      if (t.scenario.shards == 1) continue;
      report_shard_plan(layers, spans,
                        bench::make_run_topology(t.scenario, t.schemes.front(), 0),
                        t.scenario.shards, t.scenario.duration_s * 1000.0);
      Output sharded_out;
      Output single_out;
      for (const OpGroup& g : ref.output) {
        if (g.label.rfind(configs_[i].name + "/", 0) == 0) sharded_out.push_back(g);
      }
      for (const cc::SchemeHandle& scheme : t.schemes) {
        bench::SchemeSummary summary{scheme.name, {}, {}};
        for (std::size_t r = 0; r < t.scenario.runs; ++r, ++op) {
          const RunOutcome o = run_one(spans, t, scheme, r, op, 1, "single.");
          append(summary, r, o.runner_metrics);
          single.merge(o.counters);
          single_run_ms += o.run_ms;
          unsharded_ms += o.run_ms;
        }
        digest_runs(summary, t.scenario.runs, configs_[i].name, single_out);
      }
      compare_outputs(ledger, sharded_out, single_out,
                      "1 shard vs " + std::to_string(t.scenario.shards));
      ledger.attempted += ops_of(single_out);
      sharded_ms += table_run_ms[i];
    }
    layers.set("shard.speedup", sharded_ms > 0.0 ? unsharded_ms / sharded_ms : 0.0,
               "ratio");

    report_counters(layers, single, single_run_ms);
    for (const char* stage : {"build", "run", "finish"}) {
      add_distribution(layers, std::string{"runner."} + stage + "_ms",
                       spans.durations_ms(std::string{"runner."} + stage));
    }
    layers.set("scenario.materialize_ms",
               median(spans.durations_ms("scenario.materialize")), "ms");
    for (const Table& t : tables) {
      for (const cc::SchemeHandle& scheme : t.schemes) {
        const std::string name = "cc." + metric_scheme(scheme.name);
        const double packets = layers.get(name + ".packets");
        layers.set(name + ".ns_per_packet",
                   packets > 0.0 ? layers.get(name + ".run_ms") * 1e6 / packets
                                 : 0.0,
                   "ns");
      }
    }
    ref.work = single.events;
    return ref;
  }

  void cross_check(const Output&, Ledger& ledger) override {
    if (options_.smoke) return;
    for (const TableConfig& c : configs_) {
      const auto it = c.golden.find(options_.seed);
      if (it == c.golden.end()) continue;
      const auto [got, ops] = hashes_.at(c.name);
      char what[160];
      std::snprintf(what, sizeof what,
                    "%s: results hash %016" PRIx64 " != recorded %016" PRIx64,
                    c.name.c_str(), got, it->second);
      ledger.check(got == it->second, ops, what);
    }
  }

 private:
  struct RunOutcome {
    double run_ms = 0.0;
    double packets_sent = 0.0;
    RunCounters counters;
    std::vector<sim::FlowStats> runner_metrics;
  };

  Table load(const TableConfig& c) const {
    Table t;
    t.spec = bench::load_scenario(c.name);
    t.spec.seed0 += seed_offset(options_.seed);
    t.scenario = bench::make_scenario(t.spec);
    if (options_.smoke) {
      t.scenario.runs = 1;
      t.scenario.duration_s = t.spec.smoke && t.spec.smoke->duration_s
                                  ? *t.spec.smoke->duration_s
                                  : 1.0;
    } else {
      t.scenario.runs = c.runs;
    }
    t.scenario.shards = c.shards;
    t.schemes = cc::Registry::global().schemes(t.spec.schemes);
    return t;
  }

  /// One (scheme, run) through public pieces, with runner spans. Single-heap
  /// runs go through TopologyRunner so the layers can be read.
  static RunOutcome run_one(Spans& spans, const Table& t,
                            const cc::SchemeHandle& scheme, std::size_t r,
                            std::uint64_t op, std::size_t shards,
                            const std::string& prefix = "runner.") {
    RunOutcome out;
    const auto make_sender = [&](sim::FlowId) { return scheme.make_sender(); };
    const double end_ms = t.scenario.duration_s * 1000.0;
    std::unique_ptr<sim::TopologyRunner> single;
    std::unique_ptr<sim::ShardedRunner> sharded;
    sim::Topology topo;
    {
      const Span span{&spans, prefix + "build", op};
      topo = bench::make_run_topology(t.scenario, scheme, r);
      if (shards == 1) {
        single = std::make_unique<sim::TopologyRunner>(topo, make_sender);
      } else {
        sharded = std::make_unique<sim::ShardedRunner>(topo, make_sender, shards);
      }
    }
    Spans::Id run_id = Spans::kNone;
    {
      const Span span{&spans, prefix + "run", op};
      run_id = span.id();
      if (single) {
        out.counters = run_sliced(*single, topo, end_ms);
      } else {
        sharded->run_until_ms(end_ms);
      }
    }
    out.run_ms = spans.duration_ms(run_id);
    {
      const Span span{&spans, prefix + "finish", op};
      sim::MetricsHub& hub = single ? single->metrics() : sharded->metrics();
      for (sim::FlowId f = 0; f < hub.num_flows(); ++f) {
        out.runner_metrics.push_back(hub.flow(f));
        out.packets_sent += static_cast<double>(hub.flow(f).packets_sent);
      }
    }
    return out;
  }

  /// The points run_scheme would pool for this run.
  static void append(bench::SchemeSummary& s, std::size_t run,
                     const std::vector<sim::FlowStats>& flows) {
    for (sim::FlowId f = 0; f < flows.size(); ++f) {
      const sim::FlowStats& fs = flows[f];
      if (fs.on_time_ms <= 0.0) continue;
      const bench::Point p{fs.throughput_mbps(), fs.avg_queue_delay_ms(),
                           fs.avg_rtt_ms()};
      s.points.push_back(p);
      s.flows.push_back(bench::FlowSummary{run, f, p.throughput_mbps, p.rtt_ms,
                                           p.queue_delay_ms, fs.retransmissions,
                                           fs.timeouts, fs.bytes_delivered});
    }
  }

  /// What execute_spec records into the spec it hands to results_json.
  static void finish_spec(bench::SpecRun& run,
                          const std::vector<cc::SchemeHandle>& schemes) {
    run.spec.schemes.clear();
    run.spec.flow_schemes.clear();
    for (const cc::SchemeHandle& h : schemes) run.spec.schemes.push_back(h.spec);
    run.spec.runs = run.scenario.runs;
    run.spec.duration_s = run.scenario.duration_s;
  }

  std::vector<TableConfig> configs_;
  Options options_;
  std::vector<Table> tables_;
  /// Per table: results_hash of the reference pass and its op count.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hashes_;
};

}  // namespace

std::unique_ptr<Workload> make_scenarios(const Options& o) {
  return std::make_unique<ScenarioWorkload>(
      std::vector<TableConfig>{
          {"table1_dumbbell", 24, 1,
           {{1, 0xee897128f9eb87c8}, {2, 0x0f46a0ea5c8cb1c9}}},
          {"table2_cellular", 16, 1,
           {{1, 0x2211f6a3f4c4ce97}, {2, 0x156dccf82376b210}}},
          {"incast_10000", 2, 2,
           {{1, 0x5a84d53eedc0bf2d}, {2, 0xc5f9ef69a41af498}}}},
      o);
}

}  // namespace perfbench
