// Per-layer readings taken from outside the simulator: a single-heap run
// advanced in run_until_ms slices, with the queue, delay-line and transport
// state sampled at every slice boundary through public accessors.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hh"
#include "sim/shard/shard_plan.hh"
#include "sim/topology.hh"
#include "sim/topology_runner.hh"

namespace perfbench {

/// Slices per simulated run; the sampling grid of aqm.peak_queue_pkts and
/// delay.peak_in_transit.
inline constexpr int kSlices = 200;

/// Counters of one run (or a sum of runs).
struct RunCounters {
  double events = 0.0;
  double components = 0.0;  ///< max over runs
  double drops = 0.0;
  double ecn_marks = 0.0;
  double peak_queue_pkts = 0.0;  ///< max over runs and slice boundaries
  double peak_in_transit = 0.0;  ///< max over runs and slice boundaries
  double packets_sent = 0.0;
  double retransmissions = 0.0;
  double timeouts = 0.0;

  void merge(const RunCounters& o);
};

/// Runs `runner` from its current clock to `end_ms` in kSlices slices and
/// reads the layers. Results are bit-identical to one run_until_ms call.
/// `peak_in_transit` counts outstanding data packets that sit in no queue
/// (on a delay line, being serialized, or an ACK not yet back).
RunCounters run_sliced(sim::TopologyRunner& runner, const sim::Topology& topo,
                       double end_ms);

/// Writes the aqm.*, delay.*, transport.* and network.* metrics for counters
/// gathered over `run_ms` of single-heap run time.
void report_counters(Metrics& layers, const RunCounters& c, double run_ms);

/// Writes shard.plan_ms, lookahead_ms, windows, cut_links and
/// load_imbalance for a `shards`-way plan of `topo` simulated for
/// `duration_ms`.
void report_shard_plan(Metrics& layers, Spans& spans, const sim::Topology& topo,
                       std::size_t shards, double duration_ms);

}  // namespace perfbench
