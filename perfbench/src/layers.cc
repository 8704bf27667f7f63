#include "layers.hh"

#include <algorithm>
#include <map>

#include "cc/transport.hh"

namespace perfbench {

void RunCounters::merge(const RunCounters& o) {
  events += o.events;
  components = std::max(components, o.components);
  drops += o.drops;
  ecn_marks += o.ecn_marks;
  peak_queue_pkts = std::max(peak_queue_pkts, o.peak_queue_pkts);
  peak_in_transit = std::max(peak_in_transit, o.peak_in_transit);
  packets_sent += o.packets_sent;
  retransmissions += o.retransmissions;
  timeouts += o.timeouts;
}

RunCounters run_sliced(sim::TopologyRunner& runner, const sim::Topology& topo,
                       double end_ms) {
  std::vector<sim::QueueDisc*> queues;
  for (const sim::TopologyLink& link : topo.links) {
    if (sim::Bottleneck* b = runner.bottleneck(link.id)) {
      queues.push_back(&b->queue());
    }
  }
  std::vector<const cc::Transport*> transports;
  for (std::size_t f = 0; f < runner.num_flows(); ++f) {
    transports.push_back(dynamic_cast<const cc::Transport*>(&runner.sender(f)));
  }

  RunCounters c;
  const double start = runner.now();
  for (int i = 1; i <= kSlices; ++i) {
    runner.run_until_ms(i == kSlices ? end_ms
                                     : start + (end_ms - start) * i / kSlices);
    double queued = 0.0;
    for (const sim::QueueDisc* q : queues) {
      const auto n = static_cast<double>(q->packet_count());
      queued += n;
      c.peak_queue_pkts = std::max(c.peak_queue_pkts, n);
    }
    double outstanding = 0.0;
    for (const cc::Transport* t : transports) {
      if (t != nullptr) outstanding += static_cast<double>(t->inflight());
    }
    c.peak_in_transit = std::max(c.peak_in_transit, outstanding - queued);
  }
  for (const sim::QueueDisc* q : queues) {
    c.drops += static_cast<double>(q->drops());
    c.ecn_marks += static_cast<double>(q->ecn_marks());
  }
  c.events = static_cast<double>(runner.network().events_processed());
  c.components = static_cast<double>(runner.network().num_components());
  const sim::MetricsHub& hub = runner.metrics_raw();
  for (sim::FlowId f = 0; f < hub.num_flows(); ++f) {
    const sim::FlowStats& fs = hub.flow(f);
    c.packets_sent += static_cast<double>(fs.packets_sent);
    c.retransmissions += static_cast<double>(fs.retransmissions);
    c.timeouts += static_cast<double>(fs.timeouts);
  }
  return c;
}

void report_counters(Metrics& layers, const RunCounters& c, double run_ms) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  layers.set("network.events", c.events, "count");
  layers.set("network.components", c.components, "count");
  layers.set("network.ns_per_event", ratio(run_ms * 1e6, c.events), "ns");
  layers.set("aqm.drops", c.drops, "count");
  layers.set("aqm.ecn_marks", c.ecn_marks, "count");
  layers.set("aqm.peak_queue_pkts", c.peak_queue_pkts, "count");
  layers.set("aqm.drop_ratio", ratio(c.drops, c.packets_sent), "ratio");
  layers.set("delay.peak_in_transit", c.peak_in_transit, "count");
  layers.set("transport.packets_sent", c.packets_sent, "count");
  layers.set("transport.retx_ratio", ratio(c.retransmissions, c.packets_sent),
             "ratio");
  layers.set("transport.timeouts", c.timeouts, "count");
  layers.set("transport.ns_per_packet", ratio(run_ms * 1e6, c.packets_sent),
             "ns");
}

void report_shard_plan(Metrics& layers, Spans& spans, const sim::Topology& topo,
                       std::size_t shards, double duration_ms) {
  sim::ShardPlan plan;
  Spans::Id id = Spans::kNone;
  {
    const Span span{&spans, "shard.plan"};
    id = span.id();
    plan = sim::ShardPlan::build(topo, shards);
  }
  layers.set("shard.plan_ms", spans.duration_ms(id), "ms");
  const bool windowed = plan.sharded() && plan.lookahead_ms != sim::kNever;
  layers.set("shard.lookahead_ms", windowed ? plan.lookahead_ms : 0.0, "ms");
  layers.set("shard.windows", windowed ? duration_ms / plan.lookahead_ms : 0.0,
             "count");
  double cut = 0.0;
  for (const bool c : plan.link_cut) cut += c ? 1.0 : 0.0;
  layers.set("shard.cut_links", cut, "count");

  // Planned flows per shard: a flow lives where its sender's node lives.
  std::map<std::string, std::size_t> node_index;
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) node_index[topo.nodes[i]] = i;
  std::vector<double> per_shard(std::max<std::size_t>(plan.num_shards, 1), 0.0);
  for (const sim::FlowRoute& flow : topo.flows) {
    const std::size_t node = node_index.at(flow.src);
    const std::size_t shard =
        plan.sharded() && node < plan.node_shard.size() ? plan.node_shard[node] : 0;
    per_shard.at(shard) += 1.0;
  }
  double total = 0.0;
  double most = 0.0;
  for (const double n : per_shard) {
    total += n;
    most = std::max(most, n);
  }
  const double mean = total / static_cast<double>(per_shard.size());
  layers.set("shard.load_imbalance", mean > 0.0 ? most / mean : 0.0, "ratio");
}

}  // namespace perfbench
