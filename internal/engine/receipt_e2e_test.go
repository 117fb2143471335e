package engine

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/receipt"
)

// decodeBatchReceipt decodes a /batch?receipt=1 response.
func decodeBatchReceipt(t *testing.T, body []byte) batchResponse {
	t.Helper()
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerBatchReceipt pins the sync receipt path end to end:
// ?receipt=1 returns a receipt whose every proof verifies offline, the
// committed verdicts match the response verdicts, and receipts stay off
// by default.
func TestServerBatchReceipt(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 12)
	// An unresolvable ref exercises the routing-error verdict (and makes
	// the count odd, exercising promotion).
	docs = append(docs, Doc{ID: "lost", Content: `<a></a>`, SchemaRef: "ffffffffffffffff"})
	rec := postJSON(t, h, "/batch?receipt=1", map[string]any{"documents": docs})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	out := decodeBatchReceipt(t, rec.Body.Bytes())
	if out.Receipt == nil {
		t.Fatal("no receipt on ?receipt=1 response")
	}
	r := out.Receipt
	if r.Count != len(docs) || r.Kind != "check" || len(r.Proofs) != len(docs) {
		t.Fatalf("receipt shape: count=%d kind=%q proofs=%d", r.Count, r.Kind, len(r.Proofs))
	}
	if r.Anchored {
		t.Fatal("memory-only engine anchored a receipt")
	}
	for i, p := range r.Proofs {
		if p.Index != i || p.Leaf.DocID != docs[i].ID {
			t.Fatalf("proof %d: index=%d docID=%q", i, p.Index, p.Leaf.DocID)
		}
		if !receipt.Verify(r.Root, p.Leaf, p.Proof) {
			t.Fatalf("proof %d does not verify", i)
		}
		// The committed verdict agrees with the response verdict. The
		// routing-error case is pinned separately below (the wire error
		// string does not discriminate it).
		if i == len(docs)-1 {
			continue
		}
		res := out.Results[i]
		want := VerdictNotPotentiallyValid
		switch {
		case res.Error != "":
			want = VerdictMalformed
		case res.Valid:
			want = VerdictValid
		case res.PotentiallyValid:
			want = VerdictPotentiallyValid
		}
		if p.Leaf.Verdict != want {
			t.Fatalf("doc %d: committed verdict %q, response implies %q", i, p.Leaf.Verdict, want)
		}
	}
	if got := r.Proofs[len(docs)-1].Leaf.Verdict; got != VerdictRoutingError {
		t.Fatalf("unroutable document committed %q, want %q", got, VerdictRoutingError)
	}
	// Default-off: the plain route carries no receipt.
	plain := postJSON(t, h, "/batch", map[string]any{"documents": docs})
	if strings.Contains(plain.Body.String(), `"receipt"`) {
		t.Fatal("receipt present without ?receipt=1")
	}
	// The builder counters moved; the anchor counter did not.
	if s := e.Stats(); s.ReceiptsBuilt != 1 || s.ReceiptsAnchored != 0 {
		t.Fatalf("receipt counters = built %d anchored %d", s.ReceiptsBuilt, s.ReceiptsAnchored)
	}
}

// TestServerCompleteReceipt pins the completion twin: insertion counts are
// committed into the leaves and verify offline.
func TestServerCompleteReceipt(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	h := NewServer(e)
	body := map[string]any{
		"schema": jobDTDB, "root": "b",
		"documents": []Doc{
			{ID: "needs-z", Content: `<b><y>two</y></b>`}, // completable: inserts <z/>
			{ID: "already", Content: `<b><y>two</y><z></z></b>`},
			{ID: "hopeless", Content: `<b><z></z><y>y</y></b>`},
		},
	}
	rec := postJSON(t, h, "/complete?receipt=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out completeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Receipt == nil || out.Receipt.Kind != "complete" || len(out.Receipt.Proofs) != 3 {
		t.Fatalf("receipt = %+v", out.Receipt)
	}
	wantVerdicts := []string{VerdictCompleted, VerdictAlreadyValid, VerdictNotPotentiallyValid}
	for i, p := range out.Receipt.Proofs {
		if p.Leaf.Verdict != wantVerdicts[i] {
			t.Fatalf("doc %d verdict %q, want %q", i, p.Leaf.Verdict, wantVerdicts[i])
		}
		if !receipt.Verify(out.Receipt.Root, p.Leaf, p.Proof) {
			t.Fatalf("proof %d does not verify", i)
		}
	}
	if out.Receipt.Proofs[0].Leaf.Insertions == 0 {
		t.Fatal("completed document committed zero insertions")
	}
	if out.Receipt.Proofs[1].Leaf.Insertions != 0 {
		t.Fatal("already-valid document committed insertions")
	}
}

// TestServerVerifyRoute pins POST /verify: stateless acceptance of a good
// proof, rejection of a tampered one, whole-receipt mode with failed
// indices, and the 400 on an underspecified body.
func TestServerVerifyRoute(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 5)
	out := decodeBatchReceipt(t, postJSON(t, h, "/batch?receipt=1", map[string]any{"documents": docs}).Body.Bytes())
	r := out.Receipt

	// Single-triple mode, against a server that never saw the batch: a
	// fresh engine's handler answers identically (statelessness).
	fresh := NewServer(New(Config{}))
	single := postJSON(t, fresh, "/verify", map[string]any{
		"root": r.Root, "leaf": r.Proofs[2].Leaf, "proof": r.Proofs[2].Proof,
	})
	var v verifyResponse
	if err := json.Unmarshal(single.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.Checked != 1 {
		t.Fatalf("verify triple = %+v", v)
	}

	// Whole-receipt mode with one tampered leaf: ok=false and the failed
	// index named.
	tampered := *r
	tampered.Proofs = append([]DocProof(nil), r.Proofs...)
	tampered.Proofs[3].Leaf.Verdict = VerdictValid + "!"
	whole := postJSON(t, fresh, "/verify", map[string]any{"receipt": &tampered})
	if err := json.Unmarshal(whole.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Checked != len(docs) || len(v.Failed) != 1 || v.Failed[0] != 3 {
		t.Fatalf("verify tampered receipt = %+v", v)
	}

	if rec := postJSON(t, fresh, "/verify", map[string]any{"root": r.Root}); rec.Code != http.StatusBadRequest {
		t.Fatalf("underspecified body: status %d", rec.Code)
	}
}

// TestAsyncReceipt drives the async path: a job submitted with
// ?async=1&receipt=1 serves its full receipt from GET /jobs/{id}/receipt
// after finishing, every proof verifying offline; a job submitted without
// receipts answers 404 there.
func TestAsyncReceipt(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 2})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 57) // several chunks, odd tail
	id := submitAsync(t, h, "/batch?receipt=1", docs)
	if info := pollJob(t, h, id); info["state"] != "done" {
		t.Fatalf("job ended %v: %v", info["state"], info["error"])
	}
	res := get(t, h, "/jobs/"+id+"/receipt")
	if res.Code != http.StatusOK {
		t.Fatalf("GET receipt: %d %s", res.Code, res.Body)
	}
	var r Receipt
	if err := json.Unmarshal(res.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Count != len(docs) || len(r.Proofs) != len(docs) {
		t.Fatalf("receipt count=%d proofs=%d", r.Count, len(r.Proofs))
	}
	for i := range r.Proofs {
		if !receipt.Verify(r.Root, r.Proofs[i].Leaf, r.Proofs[i].Proof) {
			t.Fatalf("async proof %d does not verify", i)
		}
	}
	// The job info snapshot carries the root.
	var info map[string]any
	if err := json.Unmarshal(get(t, h, "/jobs/"+id).Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["receiptRoot"] != r.Root {
		t.Fatalf("Info.ReceiptRoot = %v, receipt root %s", info["receiptRoot"], r.Root)
	}

	// An async receipt commits the same leaves in the same order as the
	// sync path over the same inputs — the roots must be equal.
	sync := decodeBatchReceipt(t, postJSON(t, h, "/batch?receipt=1", map[string]any{"documents": docs}).Body.Bytes())
	if sync.Receipt.Root != r.Root {
		t.Fatalf("async root %s != sync root %s", r.Root, sync.Receipt.Root)
	}

	// No ?receipt=1 → no receipt.
	plainID := submitAsync(t, h, "/batch", docs[:4])
	pollJob(t, h, plainID)
	if res := get(t, h, "/jobs/"+plainID+"/receipt"); res.Code != http.StatusNotFound {
		t.Fatalf("receipt of plain job: status %d", res.Code)
	}
}

// TestReceiptCrossRestart is the durability pin: a root anchored by one
// engine is re-served byte-equal by a fresh engine over the same cache
// directory, a pre-restart proof still verifies against it, and a
// recovered receipt job still answers its root.
func TestReceiptCrossRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	h1 := NewServer(e1)
	docs := mixedJobCorpus(t, e1, 12)

	// One sync receipt (anchored) ...
	out := decodeBatchReceipt(t, postJSON(t, h1, "/batch?receipt=1", map[string]any{"documents": docs}).Body.Bytes())
	r := out.Receipt
	if r == nil || !r.Anchored || r.Seq != 1 {
		t.Fatalf("sync receipt on durable engine = %+v", r)
	}
	// ... and one async receipt job (also anchored, under the job's id).
	jobID := submitAsync(t, h1, "/batch?receipt=1", docs)
	if info := pollJob(t, h1, jobID); info["state"] != "done" {
		t.Fatalf("job ended %v", info["state"])
	}
	var jobRec Receipt
	if err := json.Unmarshal(get(t, h1, "/jobs/"+jobID+"/receipt").Body.Bytes(), &jobRec); err != nil {
		t.Fatal(err)
	}
	keepLeaf, keepProof := r.Proofs[7].Leaf, r.Proofs[7].Proof
	shutdownEngine(t, e1)

	e2 := openDurable(t, dir)
	defer e2.Close()
	h2 := NewServer(e2)
	res := get(t, h2, "/receipts")
	if res.Code != http.StatusOK {
		t.Fatalf("GET /receipts: %d %s", res.Code, res.Body)
	}
	var listed struct {
		Anchors []receipt.Anchor `json:"anchors"`
	}
	if err := json.Unmarshal(res.Body.Bytes(), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Anchors) != 2 {
		t.Fatalf("anchors after restart = %d, want 2", len(listed.Anchors))
	}
	if a := listed.Anchors[0]; a.Root != r.Root || a.Seq != 1 || a.Kind != "check" || a.Leaves != len(docs) {
		t.Fatalf("re-served anchor = %+v, want root %s", a, r.Root)
	}
	if listed.Anchors[1].Root != jobRec.Root {
		t.Fatalf("job anchor root = %s, want %s", listed.Anchors[1].Root, jobRec.Root)
	}
	// The pre-restart proof verifies against the re-served root — pure
	// computation, no state from either engine process.
	if !receipt.Verify(listed.Anchors[0].Root, keepLeaf, keepProof) {
		t.Fatal("pre-restart proof does not verify against the re-served root")
	}
	// The recovered job answers its root (root-only: proofs are not
	// persisted across restarts).
	res = get(t, h2, "/jobs/"+jobID+"/receipt")
	if res.Code != http.StatusOK {
		t.Fatalf("recovered job receipt: %d %s", res.Code, res.Body)
	}
	var rootOnly map[string]any
	if err := json.Unmarshal(res.Body.Bytes(), &rootOnly); err != nil {
		t.Fatal(err)
	}
	if rootOnly["root"] != jobRec.Root {
		t.Fatalf("recovered receipt root = %v, want %s", rootOnly["root"], jobRec.Root)
	}
	if _, hasProofs := rootOnly["proofs"]; hasProofs {
		t.Fatal("recovered receipt claims proofs it cannot have")
	}
}

// scrapeParity fetches /stats and /metrics from a quiesced engine and
// checks every /stats field against its exported family. The explicit
// table is the satellite's point: adding a /stats field without exporting
// it (or exporting a stale name) fails here.
func scrapeParity(t *testing.T, h http.Handler, instance string) {
	t.Helper()
	var stats statsResponse
	if err := json.Unmarshal(get(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	res := get(t, h, "/metrics")
	if res.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", res.Code, res.Body)
	}
	if ct := res.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	exp, err := metrics.Parse(res.Body.Bytes())
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, res.Body)
	}

	want := map[string]float64{
		"pv_engine_workers":                   float64(stats.Engine.Workers),
		"pv_engine_docs_total":                float64(stats.Engine.Docs),
		"pv_engine_potentially_valid_total":   float64(stats.Engine.PotentiallyValid),
		"pv_engine_valid_total":               float64(stats.Engine.Valid),
		"pv_engine_malformed_total":           float64(stats.Engine.Malformed),
		"pv_engine_routing_errors_total":      float64(stats.Engine.RoutingErrors),
		"pv_engine_inserted_elements_total":   float64(stats.Engine.Inserted),
		"pv_engine_bytes_total":               float64(stats.Engine.Bytes),
		"pv_engine_receipts_built_total":      float64(stats.Engine.ReceiptsBuilt),
		"pv_engine_receipts_anchored_total":   float64(stats.Engine.ReceiptsAnchored),
		"pv_engine_fast_path_hits_total":      float64(stats.Engine.FastPathHits),
		"pv_engine_fast_path_fallbacks_total": float64(stats.Engine.FastPathFallbacks),
		"pv_engine_dfa_states":                float64(stats.Engine.DFAStates),
		"pv_schema_store_size":                float64(stats.Registry.Size),
		"pv_schema_store_capacity":            float64(stats.Registry.Capacity),
		"pv_schema_store_hits_total":          float64(stats.Registry.Hits),
		"pv_schema_store_misses_total":        float64(stats.Registry.Misses),
		"pv_schema_store_evictions_total":     float64(stats.Registry.Evictions),
		"pv_schema_store_compiles_total":      float64(stats.Registry.Compiles),
		"pv_schema_store_disk_loads_total":    float64(stats.Registry.DiskLoads),
		"pv_schema_store_disk_discards_total": float64(stats.Registry.DiskDiscards),
		"pv_jobs_queued":                      float64(stats.Jobs.Queued),
		"pv_jobs_running":                     float64(stats.Jobs.Running),
		"pv_jobs_retained":                    float64(stats.Jobs.Retained),
		"pv_jobs_submitted_total":             float64(stats.Jobs.Submitted),
		"pv_jobs_completed_total":             float64(stats.Jobs.Completed),
		"pv_jobs_failed_total":                float64(stats.Jobs.Failed),
		"pv_jobs_canceled_total":              float64(stats.Jobs.Canceled),
		"pv_jobs_rejected_total":              float64(stats.Jobs.Rejected),
		"pv_jobs_reaped_total":                float64(stats.Jobs.Reaped),
		"pv_jobs_recovered_total":             float64(stats.Jobs.Recovered),
		"pv_jobs_workers":                     float64(stats.Jobs.Workers),
		"pv_jobs_queue_depth":                 float64(stats.Jobs.QueueDepth),
	}
	if stats.Jobs.Durable {
		want["pv_jobs_durable"] = 1
	} else {
		want["pv_jobs_durable"] = 0
	}
	if stats.Registry.Disk != nil {
		want["pv_schema_disk_hits_total"] = float64(stats.Registry.Disk.Hits)
		want["pv_schema_disk_misses_total"] = float64(stats.Registry.Disk.Misses)
		want["pv_schema_disk_writes_total"] = float64(stats.Registry.Disk.Writes)
		want["pv_schema_disk_errors_total"] = float64(stats.Registry.Disk.Errors)
	}
	if stats.Recovery != nil {
		want["pv_jobs_recovery_requeued"] = float64(stats.Recovery.Requeued)
		want["pv_jobs_recovery_resumed"] = float64(stats.Recovery.Resumed)
		want["pv_jobs_recovery_served"] = float64(stats.Recovery.Served)
		want["pv_jobs_recovery_failed"] = float64(stats.Recovery.Failed)
	}
	for name, wantV := range want {
		s, ok := exp.One(name)
		if !ok {
			t.Errorf("metric %s missing or ambiguous", name)
			continue
		}
		if s.Value != wantV {
			t.Errorf("%s = %v, /stats says %v", name, s.Value, wantV)
		}
		if s.Labels["instance"] != instance {
			t.Errorf("%s instance label = %q, want %q", name, s.Labels["instance"], instance)
		}
		if typ := exp.Types[name]; typ != metrics.Counter && typ != metrics.Gauge {
			t.Errorf("%s has no TYPE header (got %q)", name, typ)
		}
	}
	// Busy seconds is derived (nanos/1e9), compared against the same
	// derivation rather than listed above.
	if v, ok := exp.Value("pv_engine_busy_seconds_total"); !ok || v != float64(stats.Engine.BusyNanos)/1e9 {
		t.Errorf("pv_engine_busy_seconds_total = %v, /stats busyNanos %d", v, stats.Engine.BusyNanos)
	}
}

// TestMetricsStatsParity runs a mixed workload — sync checks, a completed
// async job, completions, receipts — and requires /metrics to agree with
// /stats field for field; then restarts the engine over the same cache
// directory and requires parity again, now with the recovery gauges
// present.
func TestMetricsStatsParity(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	h1 := NewServer(e1)
	docs := mixedJobCorpus(t, e1, 30)
	postJSON(t, h1, "/batch", map[string]any{"documents": docs})
	postJSON(t, h1, "/batch?receipt=1", map[string]any{"documents": docs[:7]})
	postJSON(t, h1, "/complete", map[string]any{
		"schema": jobDTDB, "root": "b",
		"documents": []Doc{{ID: "c0", Content: `<b><y>t</y></b>`}},
	})
	id := submitAsync(t, h1, "/batch?receipt=1", docs)
	if info := pollJob(t, h1, id); info["state"] != "done" {
		t.Fatalf("job ended %v", info["state"])
	}
	scrapeParity(t, h1, e1.InstanceID())
	shutdownEngine(t, e1)

	e2 := openDurable(t, dir)
	defer e2.Close()
	if rec, ok := e2.JobRecovery(); !ok || rec.Served != 1 {
		t.Fatalf("recovery = %+v (ran %v)", rec, ok)
	}
	scrapeParity(t, NewServer(e2), e2.InstanceID())
}

// TestAsyncReceiptAnchorsJobID pins that an async receipt is anchored
// under its job's id, both when the job runs live and when a restarted
// engine recovers it and re-runs it from input zero.
func TestAsyncReceiptAnchorsJobID(t *testing.T) {
	dir := t.TempDir()
	e1 := openDurable(t, dir)
	h1 := NewServer(e1)
	docs := mixedJobCorpus(t, e1, 12)
	live := submitAsync(t, h1, "/batch?receipt=1", docs)
	if info := pollJob(t, h1, live); info["state"] != "done" {
		t.Fatalf("live job ended %v", info["state"])
	}
	// A job queued behind a blocked job worker never starts; closing the
	// manager leaves it interrupted in the log, so the restarted engine
	// re-runs it from scratch.
	block, started := make(chan struct{}), make(chan struct{})
	blocker, err := e1.Jobs().Submit("test", 1, nil, func(_ *jobs.Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("{}")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	parked := submitAsync(t, h1, "/batch?receipt=1", docs)
	e1.Jobs().Close()
	close(block)
	<-blocker.Done()
	shutdownEngine(t, e1)

	e2 := openDurable(t, dir)
	defer e2.Close()
	h2 := NewServer(e2)
	if info := pollJob(t, h2, parked); info["state"] != "done" || info["recovered"] != true {
		t.Fatalf("recovered job = %+v", info)
	}
	anchors, err := e2.Anchors()
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors) != 2 {
		t.Fatalf("anchors = %+v, want the live and the recovered job's", anchors)
	}
	for i, id := range []string{live, parked} {
		if a := anchors[i]; a.Batch != id || a.Kind != "check" || a.Leaves != len(docs) || a.Root != anchors[0].Root {
			t.Errorf("anchor %d = %+v, want batch %s", i, a, id)
		}
	}
}
