package engine

import (
	"io"

	"repro/internal/metrics"
)

// WriteMetrics writes the engine's whole observable state as a Prometheus
// text-format (0.0.4) exposition: everything GET /stats reports — engine
// lifetime counters, schema-store tiers, job-queue gauges, recovery
// outcome, receipt counters — as typed counter and gauge families, every
// sample labeled with the engine's instance id. GET /metrics serves this;
// the parity test pins that no /stats field is missing here.
func (e *Engine) WriteMetrics(out io.Writer) error {
	w := metrics.NewWriter(out, metrics.Label{Name: "instance", Value: e.instanceID})

	es := e.Stats()
	w.Gauge("pv_engine_workers", "Size of the engine's checking worker pool.", float64(es.Workers))
	w.Counter("pv_engine_docs_total", "Documents checked or completed over the engine's lifetime.", float64(es.Docs))
	w.Counter("pv_engine_potentially_valid_total", "Documents judged potentially valid.", float64(es.PotentiallyValid))
	w.Counter("pv_engine_valid_total", "Documents judged fully valid.", float64(es.Valid))
	w.Counter("pv_engine_malformed_total", "Documents rejected as malformed.", float64(es.Malformed))
	w.Counter("pv_engine_routing_errors_total", "Documents that never reached a schema.", float64(es.RoutingErrors))
	w.Counter("pv_engine_inserted_elements_total", "Elements inserted by the completion workload.", float64(es.Inserted))
	w.Counter("pv_engine_bytes_total", "Document bytes processed.", float64(es.Bytes))
	w.Counter("pv_engine_busy_seconds_total", "Wall-clock seconds spent inside batch checking.", float64(es.BusyNanos)/1e9)
	w.Counter("pv_engine_receipts_built_total", "Verdict receipts committed.", float64(es.ReceiptsBuilt))
	w.Counter("pv_engine_receipts_anchored_total", "Receipt roots appended to the anchor log.", float64(es.ReceiptsAnchored))
	w.Counter("pv_engine_fast_path_hits_total", "Elements settled entirely on the content-model DFA fast path.", float64(es.FastPathHits))
	w.Counter("pv_engine_fast_path_fallbacks_total", "Elements that fell back from the DFA fast path to a PV recognizer.", float64(es.FastPathFallbacks))
	w.Gauge("pv_engine_dfa_states", "Compiled content-model DFA states resident across the schema store.", float64(es.DFAStates))

	rs := e.Store().Stats()
	w.Gauge("pv_schema_store_size", "Compiled schemas resident in the registry.", float64(rs.Size))
	w.Gauge("pv_schema_store_capacity", "Registry capacity in schemas.", float64(rs.Capacity))
	w.Counter("pv_schema_store_hits_total", "Registry cache hits.", float64(rs.Hits))
	w.Counter("pv_schema_store_misses_total", "Registry cache misses.", float64(rs.Misses))
	w.Counter("pv_schema_store_evictions_total", "Schemas evicted from the registry LRU.", float64(rs.Evictions))
	w.Counter("pv_schema_store_compiles_total", "Schema compilations.", float64(rs.Compiles))
	w.Counter("pv_schema_store_disk_loads_total", "Schemas resurrected from the disk tier.", float64(rs.DiskLoads))
	w.Counter("pv_schema_store_disk_discards_total", "Disk-tier entries discarded as stale or corrupt.", float64(rs.DiskDiscards))
	if rs.Disk != nil {
		w.Counter("pv_schema_disk_hits_total", "Disk-tier cache hits.", float64(rs.Disk.Hits))
		w.Counter("pv_schema_disk_misses_total", "Disk-tier cache misses.", float64(rs.Disk.Misses))
		w.Counter("pv_schema_disk_writes_total", "Disk-tier cache writes.", float64(rs.Disk.Writes))
		w.Counter("pv_schema_disk_errors_total", "Disk-tier I/O errors.", float64(rs.Disk.Errors))
	}

	js := e.Jobs().Stats()
	w.Gauge("pv_jobs_queued", "Async jobs waiting in the queue.", float64(js.Queued))
	w.Gauge("pv_jobs_running", "Async jobs currently running.", float64(js.Running))
	w.Gauge("pv_jobs_retained", "Jobs retained in the job table (all states).", float64(js.Retained))
	w.Counter("pv_jobs_submitted_total", "Async jobs accepted.", float64(js.Submitted))
	w.Counter("pv_jobs_completed_total", "Async jobs finished successfully.", float64(js.Completed))
	w.Counter("pv_jobs_failed_total", "Async jobs that failed.", float64(js.Failed))
	w.Counter("pv_jobs_canceled_total", "Async jobs canceled.", float64(js.Canceled))
	w.Counter("pv_jobs_rejected_total", "Async submissions rejected (queue full).", float64(js.Rejected))
	w.Counter("pv_jobs_reaped_total", "Finished jobs reaped after their retention TTL.", float64(js.Reaped))
	w.Counter("pv_jobs_recovered_total", "Jobs replayed from the persistent store at boot.", float64(js.Recovered))
	w.Gauge("pv_jobs_workers", "Async job worker count.", float64(js.Workers))
	w.Gauge("pv_jobs_queue_depth", "Async job queue capacity.", float64(js.QueueDepth))
	durable := 0.0
	if js.Durable {
		durable = 1
	}
	w.Gauge("pv_jobs_durable", "Whether job state survives a restart (1) or not (0).", durable)

	if rec, ok := e.JobRecovery(); ok {
		w.Gauge("pv_jobs_recovery_requeued", "Interrupted jobs re-queued by this process's boot replay.", float64(rec.Requeued))
		w.Gauge("pv_jobs_recovery_resumed", "Re-queued jobs that resumed from a durable chunk boundary.", float64(rec.Resumed))
		w.Gauge("pv_jobs_recovery_served", "Finished jobs re-registered for result serving at boot.", float64(rec.Served))
		w.Gauge("pv_jobs_recovery_failed", "Persisted jobs whose runner could not be rebuilt at boot.", float64(rec.Failed))
	}

	return w.Err()
}
