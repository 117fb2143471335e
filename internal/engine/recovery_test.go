package engine

import (
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobs/walstore"
)

// The engine-level restart suite: two engines opened over the same cache
// directory stand in for a pvserve process and its restarted successor.
// The schema disk tier is what makes runner reconstruction work — the
// recovered submission's schema refs resolve through it — so these tests
// double as integration coverage for the registry/jobs layering.

// openDurable builds an engine whose cache dir (schema tier + job WAL)
// is rooted at dir. The WAL is opened without its single-writer lock and
// injected as the JobStore: these tests simulate a killed pvserve by
// abandoning a live engine, and the "dead" predecessor's lock would
// otherwise refuse the restarted one.
func openDurable(t *testing.T, dir string) *Engine {
	t.Helper()
	ws, err := walstore.Open(filepath.Join(dir, "jobs"), walstore.Options{NoLock: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Workers: 2, JobWorkers: 1, CacheDir: dir, JobStore: ws})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// shutdownEngine drains e with a generous deadline.
func shutdownEngine(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedJobSurvivesRestart is the acceptance path: a job submitted
// to and finished by one process answers GET /jobs/{id} (state and
// byte-identical results) on a fresh process over the same cache dir.
func TestFinishedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	h1 := NewServer(e1)
	docs := mixedJobCorpus(t, e1, 100)
	id := submitAsync(t, h1, "/batch", docs)
	if info := pollJob(t, h1, id); info["state"] != "done" {
		t.Fatalf("job ended %v: %v", info["state"], info["error"])
	}
	want := get(t, h1, "/jobs/"+id+"/results").Body.String()
	shutdownEngine(t, e1)

	e2 := openDurable(t, dir)
	defer e2.Close()
	h2 := NewServer(e2)
	rec, ok := e2.JobRecovery()
	if !ok || rec.Served != 1 || rec.Requeued != 0 || rec.Failed != 0 {
		t.Fatalf("recovery = %+v (ran %v)", rec, ok)
	}
	res := get(t, h2, "/jobs/"+id)
	if res.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s on restarted process: %d %s", id, res.Code, res.Body)
	}
	var info map[string]any
	if err := json.Unmarshal(res.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["state"] != "done" || info["recovered"] != true || info["done"].(float64) != 100 {
		t.Fatalf("restarted job info = %+v", info)
	}
	res = get(t, h2, "/jobs/"+id+"/results?require=done")
	if res.Code != http.StatusOK || res.Header().Get("X-Job-State") != "done" {
		t.Fatalf("restarted results: %d, X-Job-State %q", res.Code, res.Header().Get("X-Job-State"))
	}
	if got := res.Body.String(); got != want {
		t.Fatalf("restarted results not byte-equal:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
	// The stats surface reports the recovery.
	var stats statsResponse
	if err := json.Unmarshal(get(t, h2, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Recovery == nil || stats.Recovery.Served != 1 || !stats.Jobs.Durable || stats.Jobs.Recovered != 1 {
		t.Fatalf("stats recovery block = %+v, jobs = %+v", stats.Recovery, stats.Jobs)
	}
}

// TestInterruptedJobRecoversToTerminal kills the first engine right after
// acceptance: the restarted engine must drive the job to done — with the
// full verdict set, matching a synchronous reference run — instead of
// 404ing the poller.
func TestInterruptedJobRecoversToTerminal(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	h1 := NewServer(e1)
	docs := mixedJobCorpus(t, e1, 2000)
	id := submitAsync(t, h1, "/batch", docs)
	// The "crash": no drain, no waiting — the job is at best a few chunks
	// in. (Close never persists a terminal state for interrupted jobs, so
	// the WAL replays this as in-flight.)
	e1.Close()

	e2 := openDurable(t, dir)
	defer e2.Close()
	h2 := NewServer(e2)
	rec, ok := e2.JobRecovery()
	if !ok || rec.Total() != 1 || rec.Failed != 0 {
		t.Fatalf("recovery = %+v (ran %v)", rec, ok)
	}
	info := pollJob(t, h2, id)
	if info["state"] != "done" {
		t.Fatalf("recovered job ended %v: %v", info["state"], info["error"])
	}
	if info["done"].(float64) != 2000 || info["recovered"] != true {
		t.Fatalf("recovered job info = %+v", info)
	}
	got := fetchResults(t, h2, id)
	want, _ := e2.CheckBatch(nil, docs)
	if len(got) != len(want) {
		t.Fatalf("got %d result lines, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := toJSON(want[i])
		w.Index = i
		if g != w {
			t.Fatalf("result %d after recovery: %+v != sync %+v", i, g, w)
		}
	}
}

// TestDurableJobStoreRequiresCacheDir pins the fail-fast: a durable
// custom JobStore without a CacheDir has no write-through directory to
// re-serve recovered results from — every replayed done job would degrade
// to failed — so Open refuses the combination outright.
func TestDurableJobStoreRequiresCacheDir(t *testing.T) {
	ws, err := walstore.Open(filepath.Join(t.TempDir(), "jobs"), walstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, err := Open(Config{Workers: 1, JobStore: ws}); err == nil {
		t.Fatal("Open accepted a durable JobStore without a CacheDir")
	}
}

// TestResultsStateSignaling pins satellite 3: X-Job-State on every
// results response and ?require=done conflicting (409) until the job is
// actually done — a poller can no longer mistake a truncated prefix for
// the complete verdict set.
func TestResultsStateSignaling(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1})
	defer e.Close()
	h := NewServer(e)

	firstChunk := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	j, err := e.Jobs().Submit("check", 128, nil, func(_ *jobs.Job, lo, hi int) ([][]byte, error) {
		once.Do(func() { close(firstChunk) })
		<-release
		lines := make([][]byte, hi-lo)
		for i := range lines {
			lines[i] = []byte("{}")
		}
		return lines, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-firstChunk
	// Running: 200 with the state header; strict fetch conflicts.
	rec := get(t, h, "/jobs/"+j.ID()+"/results")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Job-State") != "running" {
		t.Fatalf("running results: %d, X-Job-State %q", rec.Code, rec.Header().Get("X-Job-State"))
	}
	rec = get(t, h, "/jobs/"+j.ID()+"/results?require=done")
	if rec.Code != http.StatusConflict || rec.Header().Get("X-Job-State") != "running" {
		t.Fatalf("strict fetch on running job: %d, X-Job-State %q", rec.Code, rec.Header().Get("X-Job-State"))
	}
	close(release)
	if info := pollJob(t, h, j.ID()); info["state"] != "done" {
		t.Fatalf("job ended %v", info["state"])
	}
	rec = get(t, h, "/jobs/"+j.ID()+"/results?require=done")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Job-State") != "done" {
		t.Fatalf("strict fetch on done job: %d, X-Job-State %q", rec.Code, rec.Header().Get("X-Job-State"))
	}

	// A failed job signals its state the same way.
	jf, err := e.Jobs().Submit("check", 1, nil, func(_ *jobs.Job, lo, hi int) ([][]byte, error) {
		return nil, context.DeadlineExceeded
	})
	if err != nil {
		t.Fatal(err)
	}
	if info := pollJob(t, h, jf.ID()); info["state"] != "failed" {
		t.Fatalf("job ended %v", info["state"])
	}
	rec = get(t, h, "/jobs/"+jf.ID()+"/results")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Job-State") != "failed" {
		t.Fatalf("failed results: %d, X-Job-State %q", rec.Code, rec.Header().Get("X-Job-State"))
	}
	if rec = get(t, h, "/jobs/"+jf.ID()+"/results?require=done"); rec.Code != http.StatusConflict {
		t.Fatalf("strict fetch on failed job: %d", rec.Code)
	}
}

// TestSharedCacheDirIsolation pins that a durable and a volatile engine
// sharing one cache directory never clobber each other's job results: the
// volatile engine keeps its results in memory and writes nothing under
// jobs/, and the durable engine's restart — Recover plus the startup
// sweep of the results directory — leaves both result sets byte-identical.
func TestSharedCacheDirIsolation(t *testing.T) {
	dir := t.TempDir()
	durable := openDurable(t, dir)
	volatile, err := Open(Config{Workers: 2, JobWorkers: 1, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer volatile.Close()
	hd, hv := NewServer(durable), NewServer(volatile)
	// Enough documents that a volatile engine overflowing a capped memory
	// buffer to disk would show below.
	docs := mixedJobCorpus(t, durable, 5000)
	jobRefs(t, volatile)

	idD := submitAsync(t, hd, "/batch", docs)
	idV := submitAsync(t, hv, "/batch", docs)
	pollJob(t, hd, idD)
	if info := pollJob(t, hv, idV); info["state"] != "done" || info["spilled"] == true {
		t.Fatalf("volatile job = %+v", info)
	}
	wantD := get(t, hd, "/jobs/"+idD+"/results").Body.String()
	wantV := get(t, hv, "/jobs/"+idV+"/results").Body.String()
	if wantD != wantV || strings.Count(wantD, "\n") != len(docs) {
		t.Fatalf("durable and volatile results differ (%d vs %d bytes)", len(wantD), len(wantV))
	}
	shutdownEngine(t, durable)

	restarted := openDurable(t, dir)
	defer restarted.Close()
	hr := NewServer(restarted)
	// A fresh submission starts the pool, which runs the startup sweep.
	pollJob(t, hr, submitAsync(t, hr, "/batch", docs[:5]))
	if got := get(t, hr, "/jobs/"+idD+"/results").Body.String(); got != wantD {
		t.Fatalf("durable results changed across the restart (%d vs %d bytes)", len(got), len(wantD))
	}
	if got := get(t, hv, "/jobs/"+idV+"/results").Body.String(); got != wantV {
		t.Fatalf("volatile results changed across the sibling's restart (%d vs %d bytes)", len(got), len(wantV))
	}
	// Everything under jobs/ is the durable engine's: its WAL and its
	// write-through results.
	root := filepath.Join(dir, "jobs")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		top, _, _ := strings.Cut(rel, string(filepath.Separator))
		switch {
		case strings.Contains(rel, idV):
			t.Errorf("jobs/ holds a file of the volatile engine's job: %s", rel)
		case top != "LOCK" && top != "wal" && top != "payload" && top != "results":
			t.Errorf("unexpected file under jobs/: %s", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
