// The training workload: the same remy-train search (Trainer wired exactly
// as remy-train wires it) twice per iteration, once scoring candidates
// in-process on the trainer's thread pool (--threads 4) and once through the
// forked, supervised core::WorkerPool (--workers 4). Same search, same
// specimens, same scores, so the two outputs must be identical.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.hh"
#include "cc/registry.hh"
#include "core/scheme_registry.hh"
#include "core/trainer.hh"
#include "core/utility.hh"
#include "core/worker_pool.hh"
#include "layers.hh"
#include "sim/shard/sharded_runner.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace perfbench {
namespace {

constexpr std::size_t kParallelism = 4;  ///< --threads 4 / --workers 4
/// Every this many worker-scored candidates is re-scored in-process.
constexpr std::size_t kSpotCheckEvery = 16;

/// The design range: the paper's general-purpose prior (delta = 1, by-time
/// on/off) with the specimen network pinned to 8 senders on a 15 Mbps,
/// 150 ms dumbbell behind a 1000-packet DropTail buffer, and flows that switch
/// on within about 50 ms and stay on. The seed then moves only the on/off
/// draws and the per-specimen simulation seeds, so a training's cost does
/// not swing with how many senders or how fast a link a seed happens to
/// draw. The buffer is finite because with the prior's unlimited buffers a
/// few flooding candidates decide the cost: across seeds 1-5 (0.5 s
/// specimens) one training took 0.97-3.4 s and peaked at 48-852 MB.
core::ConfigRange train_range() {
  core::ConfigRange r = core::ConfigRange::paper_general(1.0);
  r.min_senders = r.max_senders = 8;
  r.min_link_mbps = r.max_link_mbps = 15.0;
  r.min_rtt_ms = r.max_rtt_ms = 150.0;
  r.mean_on = 60'000.0;
  r.mean_off_ms = 50.0;
  r.buffer_packets = 1000;
  return r;
}

core::TrainerOptions train_options(const Options& o) {
  core::TrainerOptions opt;
  opt.eval.num_specimens = o.smoke ? 2 : 8;
  opt.eval.simulation_ms = o.smoke ? 500.0 : 2000.0;
  opt.eval.seed = o.seed;
  opt.max_epochs = 1;
  opt.max_whiskers = 4;
  opt.max_improvement_rounds = o.smoke ? 1 : 6;  // remy-train --rounds default
  opt.threads = kParallelism;
  return opt;
}

core::WorkerPoolOptions worker_options() {
  core::WorkerPoolOptions w;
  w.workers = kParallelism;
  w.max_task_attempts = 3;  // remy-train --worker-retries default (2) + 1
  return w;
}

/// remy-train --digest's identity: tree digest plus the exact score.
OpGroup training_output(const core::TrainResult& r, const char* mode) {
  std::uint64_t score_bits = 0;
  std::memcpy(&score_bits, &r.score, sizeof score_bits);
  const std::uint64_t tree = core::fnv1a64(r.tree.to_json().dump(2));
  char label[128];
  std::snprintf(label, sizeof label, "%s: tree digest %016" PRIx64 " score %.17g",
                mode, tree, r.score);
  return OpGroup{Digest{}.add(tree).add(score_bits).value(),
                 r.actions_evaluated, label};
}

/// Both modes must reach the same tree and exact score.
void check_modes_agree(const Output& out, Ledger& ledger) {
  ledger.check(out.at(0).digest == out.at(1).digest, out.at(1).ops,
               out.at(1).label + " differs from " + out.at(0).label);
}

class TrainWorkload final : public Workload {
 public:
  explicit TrainWorkload(const Options& o)
      : options_{o}, range_{train_range()}, train_{train_options(o)} {}

  void setup() override {
    // Fork before any Trainer spawns its threads, as remy-train does.
    pool_ = std::make_unique<core::WorkerPool>(range_, train_.eval,
                                               worker_options());
    core::TrainerOptions with_workers = train_;
    with_workers.batch_scorer = [this](const std::vector<core::WhiskerTree>& t) {
      return pool_->score_batch(t);
    };
    threads_ = std::make_unique<core::Trainer>(range_, train_);
    workers_ = std::make_unique<core::Trainer>(range_, with_workers);
  }

  Output run(Ledger& ledger) override {
    Output out = {training_output(threads_->run(), "threads"),
                  training_output(workers_->run(), "workers")};
    note_lost_workers(pool_->stats(), ledger);
    check_modes_agree(out, ledger);
    return out;
  }

  void teardown() override {
    threads_.reset();
    workers_.reset();
    pool_.reset();  // reaps the workers, so their rusage lands in ours
  }

  const char* work_name() const override { return "candidates"; }

  Reference reference(Spans& spans, Metrics& layers, Ledger& ledger) override {
    Reference ref;
    double edges = 0.0;
    core::TrainerOptions opt = train_;
    opt.stop_requested = [&edges] {
      edges += 1.0;  // polled once per state-machine edge
      return false;
    };
    core::TrainerOptions with_workers = opt;
    std::unique_ptr<core::WorkerPool> pool;
    std::vector<std::pair<core::WhiskerTree, double>> spot_checks;
    std::unique_ptr<core::Evaluator> evaluator;
    std::unique_ptr<util::ThreadPool> threads;
    core::TrainResult result;
    Spans::Id root = Spans::kNone;
    std::vector<Spans::Id> runs;
    const double t0 = now_s();
    {
      const Span workload{&spans, "workload"};
      root = workload.id();
      {
        const Span span{&spans, "workers.fork"};
        pool = std::make_unique<core::WorkerPool>(range_, opt.eval,
                                                  worker_options());
      }
      with_workers.batch_scorer = [&](const std::vector<core::WhiskerTree>& t) {
        std::vector<double> scores;
        {
          const Span batch{&spans, "workers.score_batch"};
          scores = pool->score_batch(t);
        }
        for (std::size_t i = 0; i < t.size(); i += kSpotCheckEvery) {
          spot_checks.emplace_back(t[i], scores[i]);
        }
        return scores;
      };
      // The in-process path, with each Evaluator::evaluate call timed.
      {
        const Span span{&spans, "evaluator.construct"};
        evaluator = std::make_unique<core::Evaluator>(range_, opt.eval);
      }
      threads = std::make_unique<util::ThreadPool>(opt.threads);
      opt.batch_scorer = [&](const std::vector<core::WhiskerTree>& t) {
        const Span batch{&spans, "evaluator.batch"};
        const Spans::Id parent = batch.id();
        return threads->map(t.size(), [&, parent](std::size_t i) {
          const Span span{&spans, "evaluator.evaluate", i, parent};
          return evaluator->evaluate(t[i]).score;
        });
      };
      for (const auto& [mode, options] :
           {std::pair{"threads", &opt}, std::pair{"workers", &with_workers}}) {
        std::unique_ptr<core::Trainer> trainer;
        {
          const Span span{&spans, "trainer.construct"};
          trainer = std::make_unique<core::Trainer>(range_, *options);
        }
        const Span span{&spans, "trainer.run"};
        runs.push_back(span.id());
        result = trainer->run();
        ref.output.push_back(training_output(result, mode));
      }
    }
    ref.mirror_s = now_s() - t0;
    check_modes_agree(ref.output, ledger);
    tree_digest_ = core::fnv1a64(result.tree.to_json().dump(2));
    final_score_ = result.score;
    ref.work = static_cast<double>(ops_of(ref.output));
    layers.set("trace.unattributed_ms", spans.self_ms(root), "ms");
    layers.set("trainer.self_ms", spans.self_ms(runs[0]) + spans.self_ms(runs[1]),
               "ms");
    layers.set("trainer.edges", edges, "count");

    const core::WorkerPool::Stats& s = pool->stats();
    note_lost_workers(s, ledger);
    layers.set("workers.fork_ms", spans.total_ms("workers.fork"), "ms");
    layers.set("workers.score_batch_ms", spans.total_ms("workers.score_batch"),
               "ms");
    layers.set("workers.retries", static_cast<double>(s.retries), "count");
    layers.set("workers.respawns", static_cast<double>(s.respawns), "count");
    layers.set("workers.in_process", static_cast<double>(s.in_process), "count");
    layers.set("workers.degraded", s.degraded ? 1.0 : 0.0, "count");
    layers.set("workers.useful_ratio",
               s.dispatches > 0 ? static_cast<double>(s.tasks) /
                                      static_cast<double>(s.dispatches)
                                : 0.0,
               "ratio");
    pool.reset();

    // Worker scores must be bit-equal to in-process scoring; the search can
    // hide a small error (same argmax, same tree), so compare scores directly.
    for (const auto& [tree, score] : spot_checks) {
      ledger.check(evaluator->evaluate(tree).score == score, 1,
                   "a worker score differs from in-process scoring");
    }
    threads.reset();
    evaluator.reset();

    probe(spans, layers, ledger, result);
    add_distribution(layers, "evaluator.evaluate_ms",
                     spans.durations_ms("evaluator.evaluate"), false);
    layers.set("evaluator.construct_ms",
               median(spans.durations_ms("evaluator.construct")), "ms");
    return ref;
  }

  void cross_check(const Output& reference, Ledger& ledger) override {
    // Recorded tree digests and exact final scores (remy-train --digest's
    // identity) at the documented seeds.
    struct Identity {
      std::uint64_t tree;
      double score;
    };
    static const std::map<std::uint64_t, Identity> kGolden = {
        {1, {0xedc715677989885d, -4.6408412100666183}},
        {2, {0xedc715677989885d, -4.6533571288742319}}};
    const auto it = kGolden.find(options_.seed);
    if (options_.smoke || it == kGolden.end()) return;
    const bool same =
        tree_digest_ == it->second.tree && final_score_ == it->second.score;
    char what[160];
    std::snprintf(what, sizeof what,
                  "recorded identity %016" PRIx64 " / %.17g differs from ",
                  it->second.tree, it->second.score);
    ledger.check(same, ops_of(reference), what + reference.back().label);
  }

 private:
  /// A worker lost mid-task (crash or hang) fails that task.
  static void note_lost_workers(const core::WorkerPool::Stats& s,
                                Ledger& ledger) {
    const std::uint64_t lost = s.crashes + s.timeouts;
    ledger.check(lost == 0, lost, "worker pool lost workers");
  }

  /// Rebuilds every specimen of the final tree from public pieces, checks
  /// the rebuild scores exactly what Evaluator::run_specimen scores, and
  /// only then reports the queue, drop and event readings it took.
  void probe(Spans& spans, Metrics& layers, Ledger& ledger,
             const core::TrainResult& result) {
    std::unique_ptr<core::Evaluator> ev;
    {
      const Span span{&spans, "evaluator.construct"};
      ev = std::make_unique<core::Evaluator>(range_, train_.eval);
    }
    // The specimen seeds, drawn the way the Evaluator draws them.
    util::Rng rng{train_.eval.seed};
    std::vector<core::NetConfig> configs;
    std::vector<std::uint64_t> seeds;
    bool valid = true;
    for (std::size_t i = 0; i < train_.eval.num_specimens; ++i) {
      configs.push_back(range_.sample(rng));
      seeds.push_back(rng());
      valid = valid && configs.back().describe() == ev->specimens().at(i).describe();
    }

    const auto tree = std::make_shared<const core::WhiskerTree>(result.tree);
    const double end_ms = train_.eval.simulation_ms;
    RunCounters counters;
    std::vector<double> specimen_ms;
    double mean_sum = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      core::SpecimenResult want;
      Spans::Id specimen = Spans::kNone;
      {
        const Span span{&spans, "evaluator.specimen", i};
        specimen = span.id();
        want = ev->run_specimen(result.tree, configs[i], seeds[i]);
      }
      specimen_ms.push_back(spans.duration_ms(specimen));
      mean_sum += want.utility_mean;

      const sim::Topology topo = specimen_topology(configs[i], seeds[i]);
      const cc::SchemeHandle candidate = core::remy_scheme_handle(tree);
      std::unique_ptr<sim::TopologyRunner> runner;
      {
        const Span span{&spans, "runner.build", i};
        runner = std::make_unique<sim::TopologyRunner>(
            topo, [&](sim::FlowId) { return candidate.make_sender(); });
      }
      {
        const Span span{&spans, "runner.run", i};
        counters.merge(run_sliced(*runner, topo, end_ms));
      }
      double sum = 0.0;
      unsigned scored = 0;
      {
        const Span span{&spans, "runner.finish", i};
        const sim::MetricsHub& hub = runner->metrics();
        for (sim::FlowId f = 0; f < configs[i].num_senders; ++f) {
          const sim::FlowStats& fs = hub.flow(f);
          if (fs.on_time_ms <= 0.0) continue;
          const double delay = fs.rtt_samples > 0 ? fs.avg_rtt_ms()
                                                  : configs[i].rtt_ms;
          sum += std::max(core::flow_utility(fs.throughput_mbps(), delay,
                                             range_.objective),
                          train_.eval.utility_floor);
          ++scored;
        }
      }
      const bool same = sum == want.utility_sum && scored == want.senders_scored;
      ledger.check(same, 1,
                   "specimen probe " + std::to_string(i) +
                       " disagrees with Evaluator::run_specimen");
      ++ledger.attempted;
      valid = valid && same;
    }
    double score = 0.0;
    {
      const Span span{&spans, "evaluator.evaluate"};
      score = ev->evaluate(result.tree).score;
    }
    const double probe_score = mean_sum / static_cast<double>(configs.size());
    ledger.check(score == result.score && probe_score == result.score, 1,
                 "re-scoring the final tree does not give the trained score");
    ++ledger.attempted;
    valid = valid && score == result.score && probe_score == result.score;

    layers.set("evaluator.specimen_ms", median(specimen_ms), "ms");
    double slowest = 0.0;
    for (const double ms : specimen_ms) slowest = std::max(slowest, ms);
    layers.set("evaluator.specimen_imbalance",
               median(specimen_ms) > 0.0 ? slowest / median(specimen_ms) : 0.0,
               "ratio");
    if (!valid) {
      std::fprintf(stderr,
                   "specimen probe invalid: aqm.*/network.* not reported\n");
      return;
    }
    report_counters(layers, counters, spans.total_ms("runner.run"));
    for (const char* stage : {"build", "run", "finish"}) {
      add_distribution(layers, std::string{"runner."} + stage + "_ms",
                       spans.durations_ms(std::string{"runner."} + stage));
    }

    // Shard readings on specimen 0: the plan and a 1-vs-2 shard run ratio.
    const sim::Topology topo = specimen_topology(configs[0], seeds[0]);
    report_shard_plan(layers, spans, topo, 2, end_ms);
    const cc::SchemeHandle candidate = core::remy_scheme_handle(tree);
    double ms[2] = {0.0, 0.0};
    for (const std::size_t shards : {1, 2}) {
      sim::ShardedRunner net{
          topo, [&](sim::FlowId) { return candidate.make_sender(); }, shards};
      Spans::Id run = Spans::kNone;
      {
        const Span span{&spans, "shard.run" + std::to_string(shards)};
        run = span.id();
        net.run_until_ms(end_ms);
      }
      ms[shards - 1] = spans.duration_ms(run);
    }
    layers.set("shard.speedup", ms[1] > 0.0 ? ms[0] / ms[1] : 0.0, "ratio");
  }

  /// The Evaluator's specimen network, rebuilt from public pieces.
  static sim::Topology specimen_topology(const core::NetConfig& config,
                                         std::uint64_t seed) {
    const std::string queue =
        config.buffer_packets == std::numeric_limits<std::size_t>::max()
            ? "droptail:capacity=0"
            : "droptail:capacity=" + std::to_string(config.buffer_packets);
    sim::Topology topo = sim::Topology::dumbbell(sim::DumbbellTopo{
        config.num_senders, config.link_mbps, config.rtt_ms, {},
        cc::Registry::global().queue_factory(queue), nullptr});
    topo.workload = config.workload();
    topo.seed = seed;
    return topo;
  }

  Options options_;
  core::ConfigRange range_;
  core::TrainerOptions train_;
  std::unique_ptr<core::WorkerPool> pool_;
  std::unique_ptr<core::Trainer> threads_;
  std::unique_ptr<core::Trainer> workers_;
  std::uint64_t tree_digest_ = 0;  ///< of the reference pass
  double final_score_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_training(const Options& o) {
  return std::make_unique<TrainWorkload>(o);
}

}  // namespace perfbench
