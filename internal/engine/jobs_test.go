package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// Three tiny schemas for mixed-schema job corpora.
const (
	jobDTDA = `<!ELEMENT a (x*)><!ELEMENT x (#PCDATA)>`
	jobDTDB = `<!ELEMENT b (y, z)><!ELEMENT y (#PCDATA)><!ELEMENT z EMPTY>`
	jobDTDC = `<!ELEMENT c (w+)><!ELEMENT w (#PCDATA)>`
)

// jobRefs compiles the three schemas through the engine's store and
// returns their refs (16-hex prefixes).
func jobRefs(t *testing.T, e *Engine) [3]string {
	t.Helper()
	var refs [3]string
	for i, src := range []struct{ dtd, root string }{
		{jobDTDA, "a"}, {jobDTDB, "b"}, {jobDTDC, "c"},
	} {
		s, err := e.Compile(DTDSource, src.dtd, src.root, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = s.Ref[:16]
	}
	return refs
}

// mixedJobCorpus builds n documents spread over the three schemas, mixing
// valid, potentially valid, not-PV and malformed inputs.
func mixedJobCorpus(t *testing.T, e *Engine, n int) []Doc {
	t.Helper()
	refs := jobRefs(t, e)
	content := [3][4]string{
		{`<a><x>one</x></a>`, `<a></a>`, `<a><q></q></a>`, `<a><x>`},
		{`<b><y>two</y><z></z></b>`, `<b><y>two</y></b>`, `<b><z></z><y>y</y></b>`, `<b`},
		{`<c><w>three</w></c>`, `<c></c>`, `<c><x>x</x></c>`, `<c><w>`},
	}
	docs := make([]Doc, n)
	for i := range docs {
		schema := i % 3
		docs[i] = Doc{
			ID:        fmt.Sprintf("doc-%d", i),
			Content:   content[schema][(i/3)%4],
			SchemaRef: refs[schema],
		}
	}
	return docs
}

// postJSON posts body to path and returns the recorder.
func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, h, path, string(b))
}

// submitAsync posts documents to path?async=1 and returns the accepted
// job id.
func submitAsync(t *testing.T, h http.Handler, path string, docs []Doc) string {
	t.Helper()
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	rec := postJSON(t, h, path+sep+"async=1", map[string]any{"documents": docs})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var acc jobAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || acc.State != "queued" || acc.Total != len(docs) {
		t.Fatalf("accepted = %+v", acc)
	}
	if loc := rec.Header().Get("Location"); loc != "/jobs/"+acc.JobID {
		t.Fatalf("Location = %q", loc)
	}
	return acc.JobID
}

// pollJob polls GET /jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, h http.Handler, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := get(t, h, "/jobs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d: %s", id, rec.Code, rec.Body)
		}
		var info map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		switch info["state"] {
		case "done", "failed", "canceled":
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchResults reads GET /jobs/{id}/results into one resultJSON per line.
func fetchResults(t *testing.T, h http.Handler, id string) []resultJSON {
	t.Helper()
	rec := get(t, h, "/jobs/"+id+"/results")
	if rec.Code != http.StatusOK {
		t.Fatalf("results status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	var out []resultJSON
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r resultJSON
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	return out
}

// TestAsyncBatchEndToEnd is the acceptance check for the async ingest
// path: 1k mixed-schema documents submitted via POST /batch?async=1,
// polled to completion, and the NDJSON results must equal the synchronous
// CheckBatch verdicts document for document.
func TestAsyncBatchEndToEnd(t *testing.T) {
	e := New(Config{Workers: 4, JobWorkers: 2})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 1000)

	id := submitAsync(t, h, "/batch", docs)
	info := pollJob(t, h, id)
	if info["state"] != "done" {
		t.Fatalf("job ended %v: %v", info["state"], info["error"])
	}
	if done, total := info["done"].(float64), info["total"].(float64); done != 1000 || total != 1000 {
		t.Fatalf("progress %v/%v, want 1000/1000", done, total)
	}

	got := fetchResults(t, h, id)
	want, stats := e.CheckBatch(nil, docs)
	if stats.RoutingErrors != 0 {
		t.Fatalf("sync reference run had %d routing errors", stats.RoutingErrors)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d result lines, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := toJSON(want[i])
		w.Index = i
		if g != w {
			t.Fatalf("result %d: async %+v != sync %+v", i, g, w)
		}
	}
}

// TestAsyncCompleteBatch runs the completion workload through the async
// path (on the /complete/batch alias) and pins outputs to the synchronous
// CompleteBatch.
func TestAsyncCompleteBatch(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1})
	defer e.Close()
	h := NewServer(e)
	s, err := e.Compile(DTDSource, jobDTDB, "b", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]Doc, 100)
	for i := range docs {
		docs[i] = Doc{ID: fmt.Sprintf("d%d", i), Content: `<b><y>text</y></b>`, SchemaRef: s.Ref[:16]}
	}

	id := submitAsync(t, h, "/complete/batch", docs)
	if st := pollJob(t, h, id); st["state"] != "done" {
		t.Fatalf("job ended %v", st["state"])
	}
	rec := get(t, h, "/jobs/"+id+"/results")
	want, _ := e.CompleteBatch(nil, docs, true)
	sc := bufio.NewScanner(rec.Body)
	i := 0
	for sc.Scan() {
		var g completeJSON
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			t.Fatal(err)
		}
		w := completeToJSON(want[i])
		w.Index = i
		if g.ID != w.ID || g.Completed != w.Completed || g.Output != w.Output ||
			g.Inserted != w.Inserted || len(g.Insertions) != len(w.Insertions) {
			t.Fatalf("completion %d: async %+v != sync %+v", i, g, w)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("got %d lines, want %d", i, len(want))
	}
}

// TestCheckBatchAliasSync pins the /check/batch alias to /batch semantics
// on the synchronous path.
func TestCheckBatchAliasSync(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	h := NewServer(e)
	body := map[string]any{
		"schema": jobDTDA, "root": "a",
		"documents": []Doc{{ID: "one", Content: `<a><x>hi</x></a>`}},
	}
	rec := postJSON(t, h, "/check/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || !out.Results[0].Valid {
		t.Fatalf("alias verdicts: %+v", out)
	}
}

// TestAsyncQueueFull429 pins the queue-full path: with one job worker
// occupied and a one-slot queue already holding a job, an async submission
// answers 429.
func TestAsyncQueueFull429(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1, JobQueueDepth: 1})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 3)

	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := e.Jobs().Submit("test", 1, nil, func(_ *jobs.Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("{}")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Jobs().Submit("test", 1, nil, func(_ *jobs.Job, lo, hi int) ([][]byte, error) {
		return [][]byte{[]byte("{}")}, nil
	}); err != nil {
		t.Fatal(err)
	}

	rec := postJSON(t, h, "/batch?async=1", map[string]any{"documents": docs})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("429 body: %s (%v)", rec.Body, err)
	}
	close(block)
	// The synchronous path must be unaffected by a full job queue.
	rec = postJSON(t, h, "/batch", map[string]any{"documents": docs})
	if rec.Code != http.StatusOK {
		t.Fatalf("sync status %d after queue-full: %s", rec.Code, rec.Body)
	}
}

// TestAsyncCancelWhileRunning cancels a running job over HTTP and checks
// the canceled terminal state, the retained partial results, and the
// DELETE-a-finished-job removal path.
func TestAsyncCancelWhileRunning(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1})
	defer e.Close()
	h := NewServer(e)

	firstChunk := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	j, err := e.Jobs().Submit("check", 200, nil, func(_ *jobs.Job, lo, hi int) ([][]byte, error) {
		once.Do(func() { close(firstChunk) })
		<-release
		lines := make([][]byte, hi-lo)
		for i := range lines {
			lines[i] = fmt.Appendf(nil, `{"index":%d}`, lo+i)
		}
		return lines, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-firstChunk

	req := httptest.NewRequest("DELETE", "/jobs/"+j.ID(), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE status %d: %s", rec.Code, rec.Body)
	}
	var del struct {
		Canceled bool `json:"canceled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &del); err != nil || !del.Canceled {
		t.Fatalf("DELETE body: %s (%v)", rec.Body, err)
	}
	close(release)
	info := pollJob(t, h, j.ID())
	if info["state"] != "canceled" {
		t.Fatalf("state %v, want canceled", info["state"])
	}
	// One chunk (64 docs) ran before the cancellation was observed.
	if done := info["done"].(float64); done != 64 {
		t.Fatalf("done = %v, want 64 (one chunk)", done)
	}
	rec = get(t, h, "/jobs/"+j.ID()+"/results")
	if rec.Code != http.StatusOK {
		t.Fatalf("results status %d", rec.Code)
	}
	if n := strings.Count(rec.Body.String(), "\n"); n != 64 {
		t.Fatalf("partial results = %d lines, want 64", n)
	}

	// DELETE on the now-finished job removes it outright.
	req = httptest.NewRequest("DELETE", "/jobs/"+j.ID(), nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var rm struct {
		Removed bool `json:"removed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rm); err != nil || rec.Code != http.StatusOK || !rm.Removed {
		t.Fatalf("second DELETE: %d %s (%v)", rec.Code, rec.Body, err)
	}
	if rec := get(t, h, "/jobs/"+j.ID()); rec.Code != http.StatusNotFound {
		t.Fatalf("GET after removal: %d", rec.Code)
	}
}

// TestAsyncTTLReapThen404 pins the retention contract: after the TTL
// passes and the reaper sweeps, the job's status and results answer 404.
func TestAsyncTTLReapThen404(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1, JobResultTTL: time.Millisecond})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 10)

	id := submitAsync(t, h, "/batch", docs)
	pollJob(t, h, id)
	time.Sleep(10 * time.Millisecond)
	if n := e.Jobs().Reap(); n != 1 {
		t.Fatalf("Reap() = %d, want 1", n)
	}
	for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/results"} {
		if rec := get(t, h, path); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s after reap: %d %s", path, rec.Code, rec.Body)
		}
	}
	if rec := get(t, h, "/jobs/zzzz"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", rec.Code)
	}
}

// TestStatsJobGauges checks the jobs block of GET /stats and the /jobs
// listing.
func TestStatsJobGauges(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 30)

	id := submitAsync(t, h, "/batch", docs)
	pollJob(t, h, id)

	rec := get(t, h, "/stats")
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	js := stats.Jobs
	if js.Submitted != 1 || js.Completed != 1 || js.Retained != 1 || js.Running != 0 {
		t.Fatalf("job stats = %+v", js)
	}
	if js.Workers != 1 || js.QueueDepth != 64 {
		t.Fatalf("job config echo = %+v", js)
	}

	rec = get(t, h, "/jobs")
	var list struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0]["id"] != id || list.Jobs[0]["state"] != "done" {
		t.Fatalf("jobs listing = %+v", list.Jobs)
	}
}

// TestAsyncConcurrentHTTP is the HTTP-level race check: concurrent
// submissions, polls, cancels and result fetches against one server.
// Run under -race.
func TestAsyncConcurrentHTTP(t *testing.T) {
	e := New(Config{Workers: 4, JobWorkers: 4, JobQueueDepth: 256})
	defer e.Close()
	h := NewServer(e)
	docs := mixedJobCorpus(t, e, 120)

	var wg sync.WaitGroup
	ids := make(chan string, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rec := postJSON(t, h, "/batch?async=1", map[string]any{"documents": docs})
				if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
					t.Errorf("submit status %d", rec.Code)
					return
				}
				if rec.Code == http.StatusAccepted {
					var acc jobAccepted
					_ = json.Unmarshal(rec.Body.Bytes(), &acc)
					ids <- acc.JobID
				}
			}
		}()
	}
	var pollWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		pollWG.Add(1)
		go func(g int) {
			defer pollWG.Done()
			for id := range ids {
				if g%2 == 0 {
					req := httptest.NewRequest("DELETE", "/jobs/"+id, nil)
					h.ServeHTTP(httptest.NewRecorder(), req)
				}
				get(t, h, "/jobs/"+id)
				get(t, h, "/jobs/"+id+"/results")
				get(t, h, "/jobs")
				get(t, h, "/stats")
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	pollWG.Wait()
	// Drain: every retained job must reach a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := e.Jobs().Stats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncAcceptedStateIsQueued pins the 202 answer to the state Submit
// accepted the job in: even when a job worker has already finished the
// job, the submission response says queued (GET /jobs/{id} is where the
// live state is read).
func TestAsyncAcceptedStateIsQueued(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1})
	defer e.Close()
	j, err := e.SubmitCheckBatch(nil, mixedJobCorpus(t, e, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	rec := httptest.NewRecorder()
	accepted(rec, j)
	var acc jobAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusAccepted || acc.State != "queued" || acc.JobID != j.ID() || acc.Total != 3 {
		t.Fatalf("202 for a finished job: %d %+v", rec.Code, acc)
	}
}
