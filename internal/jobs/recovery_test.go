package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs/jobstore"
	"repro/internal/jobs/walstore"
)

// The crash-recovery suite: each test "kills" a manager at a specific
// point in a job's life — between the WAL append and the first chunk,
// mid-job, and post-completion — by simply abandoning it (a killed
// process calls nothing) and opening a fresh store + manager over the
// same directory, exactly as a restarted pvserve would. The invariants
// pinned here: an interrupted job reaches a terminal state on the new
// manager instead of being lost, a resumed job's results are byte-equal
// to an uninterrupted run's, and a finished job is re-served verbatim.

// openWAL opens the write-ahead store rooted at dir. NoLock: these tests
// simulate a killed process by abandoning a live manager, so the
// "crashed" predecessor still holds its store open and the single-writer
// flock (pinned by the walstore tests) would refuse the successor.
func openWAL(t *testing.T, dir string) *walstore.Store {
	t.Helper()
	st, err := walstore.Open(dir, walstore.Options{NoLock: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// durableManager builds a manager over a fresh WAL store rooted at dir.
func durableManager(t *testing.T, dir string, chunk int) *Manager {
	t.Helper()
	return NewManager(Config{Workers: 1, Chunk: chunk, ResultsDir: filepath.Join(dir, "results"), Store: openWAL(t, dir)})
}

// mkLines is the deterministic result generator shared by original runs,
// resumed runs and expectations: one "doc-<index>" line per input.
func mkLines(lo, hi int) [][]byte {
	lines := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		lines = append(lines, []byte(fmt.Sprintf("doc-%04d", i)))
	}
	return lines
}

// expectedResults is the full uninterrupted output for total inputs.
func expectedResults(total int) string {
	var b strings.Builder
	for i := 0; i < total; i++ {
		fmt.Fprintf(&b, "doc-%04d\n", i)
	}
	return b.String()
}

// resolveReal is a RunnerResolver producing the real (deterministic)
// runner, recording the submission it saw and the chunk offsets it runs.
type resolveReal struct {
	mu   sync.Mutex
	subs []Submission
	los  []int
}

func (r *resolveReal) resolve(sub Submission) (Runner, error) {
	r.mu.Lock()
	r.subs = append(r.subs, sub)
	r.mu.Unlock()
	return func(_ *Job, lo, hi int) ([][]byte, error) {
		r.mu.Lock()
		r.los = append(r.los, lo)
		r.mu.Unlock()
		return mkLines(lo, hi), nil
	}, nil
}

func readResults(t *testing.T, j *Job) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := j.WriteResults(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRecoverBeforeFirstChunk kills the manager after the write-ahead
// append but before any chunk ran: the new manager must re-run the job
// from scratch.
func TestRecoverBeforeFirstChunk(t *testing.T) {
	dir := t.TempDir()
	m1 := durableManager(t, dir, 4)
	gate := make(chan struct{})
	defer func() { close(gate); m1.Close() }()
	j1, err := m1.Submit("check", 10, []byte("payload-1"), func(_ *Job, lo, hi int) ([][]byte, error) {
		<-gate // the "crash" lands before the first chunk produces anything
		return nil, errors.New("aborted by test")
	})
	if err != nil {
		t.Fatal(err)
	}
	// The restarted process: same directory, fresh store and manager.
	m2 := durableManager(t, dir, 4)
	defer m2.Close()
	res := &resolveReal{}
	stats, err := m2.Recover(res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 || stats.Resumed != 0 || stats.Served != 0 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if len(res.subs) != 1 || res.subs[0].ID != j1.ID() || res.subs[0].Kind != "check" ||
		res.subs[0].Total != 10 || res.subs[0].Chunk != 4 || string(res.subs[0].Payload) != "payload-1" {
		t.Fatalf("resolver saw %+v", res.subs)
	}
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatal("recovered job not retained under its original id")
	}
	if !j2.Recovered() || !j2.Info().Recovered {
		t.Fatal("recovered job not annotated as recovered")
	}
	waitDone(t, j2)
	if st := j2.State(); st != Done {
		t.Fatalf("recovered job state = %v", st)
	}
	if got := readResults(t, j2); got != expectedResults(10) {
		t.Fatalf("recovered results differ:\n%q\nwant\n%q", got, expectedResults(10))
	}
}

// TestRecoverMidJobResumes kills the manager after the first chunk's
// progress record went durable: the new manager must resume from the
// chunk boundary — never re-running durable chunks — and the final
// results must be byte-equal to an uninterrupted run.
func TestRecoverMidJobResumes(t *testing.T) {
	dir := t.TempDir()
	m1 := durableManager(t, dir, 4)
	gate := make(chan struct{})
	defer func() { close(gate); m1.Close() }()
	j1, err := m1.Submit("check", 10, []byte("payload-1"), func(_ *Job, lo, hi int) ([][]byte, error) {
		if lo >= 4 {
			<-gate // the "crash" lands mid-job, after chunk [0,4) is durable
			return nil, errors.New("aborted by test")
		}
		return mkLines(lo, hi), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first chunk's progress to commit before "crashing".
	deadline := time.Now().Add(10 * time.Second)
	for j1.Info().Done < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("first chunk never completed: %+v", j1.Info())
		}
		time.Sleep(time.Millisecond)
	}
	m2 := durableManager(t, dir, 4)
	defer m2.Close()
	res := &resolveReal{}
	stats, err := m2.Recover(res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 || stats.Resumed != 1 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatal("recovered job not retained")
	}
	waitDone(t, j2)
	if st := j2.State(); st != Done {
		t.Fatalf("resumed job state = %v (%+v)", st, j2.Info())
	}
	res.mu.Lock()
	los := append([]int(nil), res.los...)
	res.mu.Unlock()
	for _, lo := range los {
		if lo < 4 {
			t.Fatalf("resumed run re-ran durable chunk at offset %d (offsets %v)", lo, los)
		}
	}
	if got := readResults(t, j2); got != expectedResults(10) {
		t.Fatalf("resumed results not byte-equal:\n%q\nwant\n%q", got, expectedResults(10))
	}
	if info := j2.Info(); info.Done != 10 || !info.Recovered {
		t.Fatalf("resumed info = %+v", info)
	}
}

// TestRecoverFinishedJobIsReserved kills the process after completion:
// the new manager must serve the job's state and byte-identical results
// without ever resolving a runner.
func TestRecoverFinishedJobIsReserved(t *testing.T) {
	dir := t.TempDir()
	m1 := durableManager(t, dir, 4)
	j1, err := m1.Submit("check", 10, []byte("payload-1"), func(_ *Job, lo, hi int) ([][]byte, error) {
		return mkLines(lo, hi), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	want := readResults(t, j1)
	if want != expectedResults(10) {
		t.Fatalf("original results wrong: %q", want)
	}
	// Graceful path this time: Shutdown drains and releases the store.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := durableManager(t, dir, 4)
	defer m2.Close()
	stats, err := m2.Recover(func(sub Submission) (Runner, error) {
		t.Errorf("resolver called for finished job %s", sub.ID)
		return nil, errors.New("must not run")
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 || stats.Requeued != 0 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatal("finished job not re-served")
	}
	select {
	case <-j2.Done():
	default:
		t.Fatal("re-served finished job's Done channel is open")
	}
	info := j2.Info()
	if info.State != "done" || info.Done != 10 || !info.Recovered {
		t.Fatalf("re-served info = %+v", info)
	}
	if got := readResults(t, j2); got != want {
		t.Fatalf("re-served results not byte-equal:\n%q\nwant\n%q", got, want)
	}
	// Removing the re-served job retires its history: a third incarnation
	// recovers nothing.
	if !m2.Remove(j2.ID()) {
		t.Fatal("Remove failed on re-served job")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := m2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	m3 := durableManager(t, dir, 4)
	defer m3.Close()
	stats3, err := m3.Recover(func(sub Submission) (Runner, error) { return nil, errors.New("no") })
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Total() != 0 {
		t.Fatalf("removed job came back: %+v", stats3)
	}
}

// TestRecoverUnresolvableJobFails pins the degraded path: when the
// resolver cannot rebuild a runner, the job lands terminal-failed (not
// lost), the verdict is persisted, and the next incarnation serves the
// failure without re-resolving.
func TestRecoverUnresolvableJobFails(t *testing.T) {
	dir := t.TempDir()
	m1 := durableManager(t, dir, 4)
	gate := make(chan struct{})
	defer func() { close(gate); m1.Close() }()
	j1, err := m1.Submit("check", 10, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		<-gate
		return nil, errors.New("aborted by test")
	})
	if err != nil {
		t.Fatal(err)
	}
	m2 := durableManager(t, dir, 4)
	stats, err := m2.Recover(func(sub Submission) (Runner, error) {
		return nil, errors.New("schema evaporated")
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Requeued != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatal("unresolvable job was lost")
	}
	info := j2.Info()
	if info.State != "failed" || !strings.Contains(info.Error, "schema evaporated") {
		t.Fatalf("unresolvable job info = %+v", info)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	m3 := durableManager(t, dir, 4)
	defer m3.Close()
	stats3, err := m3.Recover(func(sub Submission) (Runner, error) {
		t.Errorf("resolver re-invoked for terminally failed job %s", sub.ID)
		return nil, errors.New("no")
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Served != 1 || stats3.Failed != 0 {
		t.Fatalf("third incarnation stats = %+v", stats3)
	}
}

// seedInterruptedAtFinalChunk fabricates the WAL of a process killed
// after the final chunk's progress record went durable but before the
// terminal record: total 10, chunk 4, so the last record (done=10) is NOT
// chunk-aligned. withResults controls whether the write-through results
// file (which covers all 10 inputs) survives too. Returns the job id.
func seedInterruptedAtFinalChunk(t *testing.T, dir string, withResults bool) string {
	t.Helper()
	const id = "0123456789abcdef"
	if withResults {
		if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "results", id+".ndjson"), []byte(expectedResults(10)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := openWAL(t, dir)
	bytesAt := func(n int) int64 { return int64(len(expectedResults(n))) }
	for _, ev := range []jobstore.Event{
		{Type: jobstore.Submitted, Job: id, Time: time.Now(), Kind: "check", Total: 10, Chunk: 4, Payload: []byte("payload-1")},
		{Type: jobstore.Started, Job: id},
		{Type: jobstore.Progress, Job: id, Done: 4, ResultBytes: bytesAt(4)},
		{Type: jobstore.Progress, Job: id, Done: 8, ResultBytes: bytesAt(8)},
		{Type: jobstore.Progress, Job: id, Done: 10, ResultBytes: bytesAt(10)},
	} {
		ev := ev
		if err := st.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRecoverFinalPartialChunkServesDone pins the crash window between
// the final partial chunk's progress record and the terminal record: the
// results file already covers every input, so the recovered job must be
// finalized done and served verbatim — re-queueing it from the last
// aligned boundary would re-run chunk [8,10) and append duplicate result
// lines while still reporting state=done.
func TestRecoverFinalPartialChunkServesDone(t *testing.T) {
	dir := t.TempDir()
	id := seedInterruptedAtFinalChunk(t, dir, true)
	m := durableManager(t, dir, 4)
	res := &resolveReal{}
	stats, err := m.Recover(res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 || stats.Requeued != 0 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	j, ok := m.Get(id)
	if !ok {
		t.Fatal("job not recovered")
	}
	if st := j.State(); st != Done {
		t.Fatalf("recovered job state = %v (%+v)", st, j.Info())
	}
	if got := readResults(t, j); got != expectedResults(10) {
		t.Fatalf("recovered results not byte-equal (duplicated final chunk?):\n%q\nwant\n%q", got, expectedResults(10))
	}
	if info := j.Info(); info.Done != 10 || !info.Recovered {
		t.Fatalf("recovered info = %+v", info)
	}
	res.mu.Lock()
	ran := len(res.los)
	res.mu.Unlock()
	if ran != 0 {
		t.Fatalf("completed job re-ran chunks at offsets %v", res.los)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The synthesized terminal record went durable: the next incarnation
	// replays a finished job outright, byte-equal again.
	m2 := durableManager(t, dir, 4)
	defer m2.Close()
	stats2, err := m2.Recover(func(sub Submission) (Runner, error) {
		t.Errorf("resolver called for finalized job %s", sub.ID)
		return nil, errors.New("must not run")
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Served != 1 || stats2.Requeued != 0 {
		t.Fatalf("second recovery stats = %+v", stats2)
	}
	j2, ok := m2.Get(id)
	if !ok {
		t.Fatal("finalized job not re-served")
	}
	if got := readResults(t, j2); got != expectedResults(10) {
		t.Fatalf("re-served results not byte-equal: %q", got)
	}
}

// TestRecoverFinalPartialChunkWithoutResultsReruns is the degraded twin:
// same crash window, but the write-through results file did not survive.
// With nothing to serve, the job must re-run from input zero (the
// non-aligned final record is not a resume point) and still converge to
// done with byte-equal results.
func TestRecoverFinalPartialChunkWithoutResultsReruns(t *testing.T) {
	dir := t.TempDir()
	id := seedInterruptedAtFinalChunk(t, dir, false)
	m := durableManager(t, dir, 4)
	defer m.Close()
	res := &resolveReal{}
	stats, err := m.Recover(res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 || stats.Resumed != 0 || stats.Served != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	j, ok := m.Get(id)
	if !ok {
		t.Fatal("job not recovered")
	}
	waitDone(t, j)
	if st := j.State(); st != Done {
		t.Fatalf("re-run job state = %v (%+v)", st, j.Info())
	}
	if got := readResults(t, j); got != expectedResults(10) {
		t.Fatalf("re-run results not byte-equal:\n%q\nwant\n%q", got, expectedResults(10))
	}
	res.mu.Lock()
	los := append([]int(nil), res.los...)
	res.mu.Unlock()
	if len(los) == 0 || los[0] != 0 {
		t.Fatalf("re-run did not restart from zero: offsets %v", los)
	}
}

// TestSweepWaitsForRecover pins the sweep gate: a manager that starts
// without a Recover pass (a library user submitting directly) must not
// delete prior jobs' write-through results — the WAL still retains their
// histories, and sweeping the files would degrade those jobs to failed
// ("recovered results incomplete") on the next Recover.
func TestSweepWaitsForRecover(t *testing.T) {
	dir := t.TempDir()
	m1 := durableManager(t, dir, 4)
	j1, err := m1.Submit("check", 8, nil, func(_ *Job, lo, hi int) ([][]byte, error) { return mkLines(lo, hi), nil })
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resultsFile := filepath.Join(dir, "results", j1.ID()+".ndjson")
	if _, err := os.Stat(resultsFile); err != nil {
		t.Fatalf("finished job's write-through results missing: %v", err)
	}
	// Second incarnation skips Recover and submits directly.
	m2 := durableManager(t, dir, 4)
	j2, err := m2.Submit("check", 4, nil, func(_ *Job, lo, hi int) ([][]byte, error) { return mkLines(lo, hi), nil })
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if _, err := os.Stat(resultsFile); err != nil {
		t.Fatalf("no-Recover manager swept a prior job's results: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := m2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	// The incarnation that does recover serves both finished jobs intact.
	m3 := durableManager(t, dir, 4)
	defer m3.Close()
	stats, err := m3.Recover(func(sub Submission) (Runner, error) {
		t.Errorf("resolver called for finished job %s", sub.ID)
		return nil, errors.New("must not run")
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != 2 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	jr, ok := m3.Get(j1.ID())
	if !ok {
		t.Fatal("prior job lost")
	}
	if info := jr.Info(); info.State != "done" {
		t.Fatalf("prior job degraded: %+v", info)
	}
	if got := readResults(t, jr); got != expectedResults(8) {
		t.Fatalf("prior job results not byte-equal: %q", got)
	}
}

// TestRecoverAfterSubmitRejected pins the ordering contract: replay on a
// manager that already accepted work is refused.
func TestRecoverAfterSubmitRejected(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(t, dir, 4)
	defer m.Close()
	j, err := m.Submit("check", 1, nil, func(_ *Job, lo, hi int) ([][]byte, error) { return mkLines(lo, hi), nil })
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, err := m.Recover(func(sub Submission) (Runner, error) { return nil, nil }); err != ErrRecoverAfterStart {
		t.Fatalf("Recover after Submit = %v, want ErrRecoverAfterStart", err)
	}
}

// TestShutdownDrains pins the graceful-shutdown contract: Shutdown waits
// for the running job to finalize, then releases the store; a context
// that expires first returns ctx.Err() without wedging.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	st := openWAL(t, dir)
	m := NewManager(Config{Workers: 1, Chunk: 4, ResultsDir: filepath.Join(dir, "results"), Store: st})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	j, err := m.Submit("check", 4, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return mkLines(lo, hi), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside the chunk; the drain must block on it
	// Expired context: Shutdown reports the deadline, the drain continues.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with blocked job = %v, want deadline exceeded", err)
	}
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := m.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	// The store must be released after a completed drain.
	if err := st.Append(&jobstore.Event{Type: jobstore.Submitted, Job: "x"}); err != walstore.ErrClosed {
		t.Fatalf("store append after drained Shutdown = %v, want ErrClosed", err)
	}
}

// TestConcurrentSubmitThenReplay hammers the write-ahead path from many
// goroutines (the -race CI pass runs this), then replays the log on a
// fresh manager and checks nothing was lost or duplicated.
func TestConcurrentSubmitThenReplay(t *testing.T) {
	dir := t.TempDir()
	st := openWAL(t, dir)
	m1 := NewManager(Config{Workers: 4, QueueDepth: 256, Chunk: 4, ResultsDir: filepath.Join(dir, "results"), Store: st})
	const goroutines, perG = 8, 8
	var wg sync.WaitGroup
	ids := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j, err := m1.Submit("check", 8, []byte(fmt.Sprintf("p-%d-%d", g, i)),
					func(_ *Job, lo, hi int) ([][]byte, error) { return mkLines(lo, hi), nil })
				if err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], j.ID())
				waitDone(t, j)
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := durableManager(t, dir, 4)
	defer m2.Close()
	stats, err := m2.Recover(func(sub Submission) (Runner, error) {
		return func(_ *Job, lo, hi int) ([][]byte, error) { return mkLines(lo, hi), nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != goroutines*perG {
		t.Fatalf("served %d jobs, want %d (stats %+v)", stats.Served, goroutines*perG, stats)
	}
	for g := range ids {
		for _, id := range ids[g] {
			j, ok := m2.Get(id)
			if !ok {
				t.Fatalf("job %s lost across restart", id)
			}
			if got := readResults(t, j); got != expectedResults(8) {
				t.Fatalf("job %s results differ after replay", id)
			}
		}
	}
}
