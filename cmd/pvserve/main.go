// Command pvserve is the HTTP front end of the concurrent checking and
// completion engine: compile once, check (or repair) a firehose of
// documents.
//
// Usage:
//
//	pvserve [-addr :8080] [-workers N] [-cache N] [-cache-dir DIR] [-max-doc-bytes N]
//	        [-job-workers N] [-job-queue N] [-job-ttl DUR] [-job-volatile] [-job-wal-nosync]
//	        [-drain DUR]
//
// Routes (all JSON; full wire spec in docs/http-api.md, async jobs in
// docs/jobs-api.md):
//
//	POST /check             {"schema","kind","root","options","document"}  -> verdict
//	POST /batch             {"schema","kind","root","options","documents"} -> verdicts + stats
//	POST /batch?async=1     same body -> 202 {jobId}; poll /jobs/{id}
//	POST /check/raw         one raw XML body (any size) -> one verdict
//	POST /check/stream      NDJSON in (schema headers + documents), NDJSON out
//	POST /complete          {"schema",...,"documents","diff"} -> completions + diffs + stats
//	POST /complete?async=1  same body -> 202 {jobId}
//	POST /complete/stream   NDJSON in, NDJSON completion lines out (?diff=0 drops records)
//	GET  /jobs              retained async jobs; GET /jobs/{id} one job's progress
//	GET  /jobs/{id}/results one job's verdicts as NDJSON; DELETE /jobs/{id} cancels
//	GET  /schemas           cached compiled schemas, most recently used first
//	GET  /stats             registry, engine and job-queue lifetime counters
//
// Async jobs decouple document arrival from verdict production: a huge
// corpus is accepted in one 202 round trip, checked by -job-workers jobs
// draining through the shared worker pool, and its results are retained
// for -job-ttl after completion (in memory, or written through to
// <cache-dir>/jobs/results when jobs are durable).
//
// With -cache-dir set, jobs are durable by default: every submission is
// recorded in a write-ahead log under <cache-dir>/jobs before it is
// accepted, so a restarted pvserve re-serves finished jobs and re-runs (or
// resumes) interrupted ones — GET /jobs/{id} keeps answering across
// restarts. -job-volatile opts out; -job-wal-nosync trades the per-submit
// fsync for throughput (a process kill still loses nothing, only a machine
// crash can). See docs/operations.md, "Durability & restart".
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops, in-
// flight requests and running jobs drain for up to -drain, and the WAL is
// closed cleanly before the process exits 0.
//
// The schema travels inline with each request; the store dedupes by
// content hash, so resending it costs a hash, not a compilation. The store
// holds -cache compiled schemas under one LRU, and -cache-dir enables the
// disk-backed compiled-schema cache: a restarted pvserve rehydrates its
// hot schema set (and keeps honoring previously issued schemaRefs)
// without recompiling a single DTD. Documents may instead carry
// "schemaRef" (see GET /schemas) to route a mixed multi-schema batch. The
// *stream routes read documents incrementally (plain or gzip-encoded
// bodies), keep a bounded number in flight, and flush one output line per
// document — bodies of any size, with a per-document cap (after
// decompression; -max-doc-bytes, default 64MB), not per body.
//
// POST /check/raw has no document cap at all: the body is one raw XML
// document (schema selected by X-Schema-Ref or ?schemaRef=), checked in a
// single bounded-memory pass through a 256KB sliding window — the route
// for the multi-GB documents the envelope routes cannot carry.
//
// A schema compiles without its content-model DFA tables (every document
// then runs on the PV recognizer, with the same verdicts) when the request
// sets "options": {"DisableFastPath": true}.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "batch worker goroutines (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 0, "compiled-schema store capacity in schemas (0 = default 64)")
	cacheDir := flag.String("cache-dir", "", "disk-backed compiled-schema cache directory (empty = memory only)")
	maxDocBytes := flag.Int("max-doc-bytes", 0, "per-document cap on the NDJSON stream routes in bytes (0 = default 64MB; /check/raw is never capped)")
	jobWorkers := flag.Int("job-workers", 0, "concurrent async jobs (0 = default 2)")
	jobQueue := flag.Int("job-queue", 0, "async jobs queued beyond the running ones before 429 (0 = default 64)")
	jobTTL := flag.Duration("job-ttl", 0, "retention of finished async jobs and their results (0 = default 15m)")
	jobVolatile := flag.Bool("job-volatile", false, "keep async jobs in memory even when -cache-dir is set (no write-ahead log)")
	jobWALNoSync := flag.Bool("job-wal-nosync", false, "skip the per-submission fsync of the job write-ahead log")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests and running jobs")
	flag.Parse()

	e, err := engine.Open(engine.Config{
		Workers:       *workers,
		CacheSize:     *cache,
		CacheDir:      *cacheDir,
		MaxDocBytes:   *maxDocBytes,
		JobWorkers:    *jobWorkers,
		JobQueueDepth: *jobQueue,
		JobResultTTL:  *jobTTL,
		VolatileJobs:  *jobVolatile,
		JobWALNoSync:  *jobWALNoSync,
	})
	if err != nil {
		log.Fatalf("pvserve: %v", err)
	}
	if rec, ok := e.JobRecovery(); ok {
		if n := rec.Total(); n > 0 {
			log.Printf("pvserve: recovered %d job(s) from the write-ahead log (requeued=%d resumed=%d served=%d failed=%d)",
				n, rec.Requeued, rec.Resumed, rec.Served, rec.Failed)
		} else {
			log.Printf("pvserve: job write-ahead log replayed clean (no jobs to recover)")
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           engine.NewServer(e),
		ReadHeaderTimeout: 10 * time.Second,
		// Bodies on the non-streaming routes are capped at
		// engine.MaxRequestBytes; /check/stream lifts this deadline per
		// request via a ResponseController to read unbounded bodies.
		ReadTimeout: 2 * time.Minute,
		IdleTimeout: 2 * time.Minute,
	}
	st := e.Store().Stats()
	js := e.Jobs().Stats()
	log.Printf("pvserve listening on %s (workers=%d, cache=%d, cache-dir=%q, job-workers=%d, job-queue=%d, durable-jobs=%v)",
		*addr, e.Workers(), st.Capacity, *cacheDir, js.Workers, js.QueueDepth, js.Durable)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("pvserve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("pvserve: shutting down (drain budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("pvserve: http drain: %v", err)
	}
	// Let running jobs reach a chunk boundary (or finish) before the WAL
	// closes; anything still in flight is recorded as interrupted and
	// re-run on the next start.
	if err := e.Shutdown(dctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("pvserve: job drain: %v (interrupted jobs will recover on restart)", err)
	}
	e.Close()
	log.Printf("pvserve: bye")
}
