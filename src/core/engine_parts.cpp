#include "core/engine_parts.hpp"

#include "core/dependency_graph.hpp"
#include "util/assert.hpp"

namespace psmr::core {
namespace {

/// Adds the delta between a serialized accumulator and its last published
/// value into a registry counter, so the exported counter tracks the
/// accumulator's total while staying monotonic.
void publish_total(obs::Counter& c, std::uint64_t current, std::uint64_t& published) {
  PSMR_DCHECK(current >= published);
  c.add(current - published);
  published = current;
}

}  // namespace

SchedulerMetrics::SchedulerMetrics(obs::MetricsRegistry& registry, unsigned workers)
    : batches_delivered(registry.counter("scheduler.batches_delivered")),
      batches_executed(registry.counter("scheduler.batches_executed")),
      commands_executed(registry.counter("scheduler.commands_executed")),
      batches_failed(registry.counter("scheduler.batches_failed")),
      queue_wait_ns(registry.histogram("scheduler.queue_wait_ns")) {
  worker_batches.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    worker_batches.push_back(
        &registry.counter("worker." + std::to_string(i) + ".batches_executed"));
  }
}

void publish_graph_stats(const DependencyGraph& graph, const obs::BatchTracer& tracer,
                         obs::MetricsRegistry& registry, GraphStatsCursor& cursor) {
  const ConflictStats& cs = graph.conflict_stats();
  publish_total(registry.counter("scheduler.insert.pair_tests"), cs.tests,
                cursor.pair_tests);
  publish_total(registry.counter("scheduler.insert.comparisons"), cs.comparisons,
                cursor.comparisons);
  publish_total(registry.counter("scheduler.insert.conflicts_found"), cs.conflicts_found,
                cursor.conflicts_found);
  const DependencyGraph::IndexStats& is = graph.index_stats();
  publish_total(registry.counter("graph.index.probes"), is.probes, cursor.index_probes);
  publish_total(registry.counter("graph.index.fast_path_skips"), is.fast_path_skips,
                cursor.index_fast_path_skips);
  publish_total(registry.counter("graph.index.candidate_tests"), is.candidate_tests,
                cursor.index_candidate_tests);
  publish_total(registry.counter("graph.index.activations"), is.activations,
                cursor.index_activations);
  publish_total(registry.counter("graph.index.deactivations"), is.deactivations,
                cursor.index_deactivations);
  publish_total(registry.counter("trace.batches_started"), tracer.started(),
                cursor.trace_started);
  publish_total(registry.counter("trace.batches_evicted"), tracer.evicted(),
                cursor.trace_evicted);

  registry.gauge("graph.resident_batches").set(static_cast<double>(graph.size()));
  registry.gauge("graph.size_at_insert.avg").set(graph.size_at_insert().mean());
  registry.gauge("graph.size_at_insert.max").set(graph.size_at_insert().max());
  registry.gauge("graph.index.active").set(graph.index_active() ? 1.0 : 0.0);
  registry.gauge("trace.capacity").set(static_cast<double>(tracer.capacity()));
}

std::string failure_message(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

}  // namespace psmr::core
