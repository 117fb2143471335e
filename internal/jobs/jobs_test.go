package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// countingRunner returns one line per input, "line-<index>".
func countingRunner(t *testing.T) Runner {
	t.Helper()
	return func(_ *Job, lo, hi int) ([][]byte, error) {
		lines := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			lines = append(lines, []byte(fmt.Sprintf("line-%d", i)))
		}
		return lines, nil
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Info())
	}
}

func TestJobLifecycle(t *testing.T) {
	m := NewManager(Config{Workers: 1, Chunk: 8})
	defer m.Close()
	j, err := m.Submit("check", 20, nil, countingRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	info := j.Info()
	if info.State != "done" || info.Done != 20 || info.Total != 20 {
		t.Fatalf("info = %+v", info)
	}
	if info.StartedAt == nil || info.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", info)
	}
	var buf bytes.Buffer
	if _, err := j.WriteResults(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("got %d result lines, want 20", len(lines))
	}
	for i, ln := range lines {
		if want := fmt.Sprintf("line-%d", i); ln != want {
			t.Fatalf("line %d = %q, want %q", i, ln, want)
		}
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Retained != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroInputJobCompletes(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit("check", 0, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		t.Error("runner invoked for a zero-input job")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != Done {
		t.Fatalf("state = %v, want done", j.State())
	}
}

func TestQueueFull(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Job A occupies the single worker.
	a, err := m.Submit("check", 1, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("a")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Job B fills the queue.
	if _, err := m.Submit("check", 1, nil, countingRunner(t)); err != nil {
		t.Fatal(err)
	}
	// Job C must be rejected.
	if _, err := m.Submit("check", 1, nil, countingRunner(t)); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	close(block)
	waitDone(t, a)
}

func TestCancelQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer m.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	a, err := m.Submit("check", 1, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("a")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := m.Submit("check", 5, nil, countingRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Cancel(b.ID()); err != nil || !ok {
		t.Fatalf("Cancel = %v, %v", ok, err)
	}
	waitDone(t, b)
	if info := b.Info(); info.State != "canceled" || info.Done != 0 {
		t.Fatalf("info = %+v", info)
	}
	close(block)
	waitDone(t, a)
	if a.State() != Done {
		t.Fatalf("job a state = %v (cancel of b must not touch a)", a.State())
	}
}

func TestCancelWhileRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1, Chunk: 2})
	defer m.Close()
	firstChunk := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	j, err := m.Submit("check", 10, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		once.Do(func() { close(firstChunk) })
		<-release
		lines := make([][]byte, hi-lo)
		for i := range lines {
			lines[i] = []byte(fmt.Sprintf("line-%d", lo+i))
		}
		return lines, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-firstChunk
	if ok, err := m.Cancel(j.ID()); err != nil || !ok {
		t.Fatalf("Cancel = %v, %v", ok, err)
	}
	close(release)
	waitDone(t, j)
	info := j.Info()
	if info.State != "canceled" {
		t.Fatalf("state = %s, want canceled", info.State)
	}
	// The first chunk completed before cancellation took hold; its partial
	// results must be retained.
	if info.Done != 2 {
		t.Fatalf("done = %d, want 2 (one chunk)", info.Done)
	}
	var buf bytes.Buffer
	if _, err := j.WriteResults(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "line-0\nline-1\n" {
		t.Fatalf("partial results = %q", got)
	}
	if st := m.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", st.Canceled)
	}
}

func TestFailedJobKeepsEarlierChunks(t *testing.T) {
	m := NewManager(Config{Workers: 1, Chunk: 3})
	defer m.Close()
	j, err := m.Submit("check", 9, nil, func(j *Job, lo, hi int) ([][]byte, error) {
		if lo >= 3 {
			return nil, fmt.Errorf("boom at %d", lo)
		}
		return countingRunner(t)(j, lo, hi)
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	info := j.Info()
	if info.State != "failed" || !strings.Contains(info.Error, "boom at 3") || info.Done != 3 {
		t.Fatalf("info = %+v", info)
	}
}

// TestSpillToDisk pins the write-through sink: with a ResultsDir, a job's
// results live in <ResultsDir>/<id>.ndjson, serve byte-exact, and go away
// with the job.
func TestSpillToDisk(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Workers: 1, Chunk: 4, ResultsDir: dir})
	defer m.Close()
	j, err := m.Submit("check", 25, nil, countingRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	info := j.Info()
	if !info.Spilled {
		t.Fatalf("job did not spill: %+v", info)
	}
	spill := filepath.Join(dir, j.ID()+".ndjson")
	if _, err := os.Stat(spill); err != nil {
		t.Fatalf("spill file: %v", err)
	}
	var buf bytes.Buffer
	n, err := j.WriteResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != info.ResultBytes {
		t.Fatalf("WriteResults wrote %d bytes, info says %d", n, info.ResultBytes)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 25 || lines[0] != "line-0" || lines[24] != "line-24" {
		t.Fatalf("spilled results wrong: %d lines, first %q, last %q", len(lines), lines[0], lines[len(lines)-1])
	}
	// Removing the finished job deletes the spill file.
	if !m.Remove(j.ID()) {
		t.Fatal("Remove returned false for a finished job")
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("spill file survived removal: %v", err)
	}
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("job still retained after Remove")
	}
}

func TestReapTTL(t *testing.T) {
	m := NewManager(Config{Workers: 1, ResultTTL: time.Millisecond})
	defer m.Close()
	j, err := m.Submit("check", 2, nil, countingRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	time.Sleep(10 * time.Millisecond)
	if n := m.Reap(); n != 1 {
		t.Fatalf("Reap() = %d, want 1", n)
	}
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("job still retained after reap")
	}
	if _, err := m.Cancel(j.ID()); err != ErrNotFound {
		t.Fatalf("Cancel after reap = %v, want ErrNotFound", err)
	}
	if st := m.Stats(); st.Reaped != 1 || st.Retained != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReapSkipsActiveJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, ResultTTL: time.Millisecond})
	defer m.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	j, err := m.Submit("check", 1, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("x")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	time.Sleep(5 * time.Millisecond)
	if n := m.Reap(); n != 0 {
		t.Fatalf("Reap() removed %d active jobs", n)
	}
	close(block)
	waitDone(t, j)
}

// TestCanceledQueuedJobFreesSlot pins that canceling a queued job releases
// its queue slot immediately: the QueueDepth bound counts jobs actually
// waiting, not canceled husks a busy worker has yet to drain.
func TestCanceledQueuedJobFreesSlot(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	a, err := m.Submit("check", 1, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("a")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := m.Submit("check", 1, nil, countingRunner(t)) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("check", 1, nil, countingRunner(t)); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if ok := b.Cancel(); !ok {
		t.Fatal("Cancel of queued job returned false")
	}
	c, err := m.Submit("check", 1, nil, countingRunner(t))
	if err != nil {
		t.Fatalf("submit after canceling the queued job: %v (slot not freed)", err)
	}
	close(block)
	waitDone(t, a)
	waitDone(t, c)
	if c.State() != Done {
		t.Fatalf("job c state = %v, want done", c.State())
	}
}

// TestCloseFinalizesQueuedJobs pins that Close cancels still-queued jobs
// so their Done channels close and no waiter hangs.
func TestCloseFinalizesQueuedJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	started := make(chan struct{})
	a, err := m.Submit("check", 1, nil, func(_ *Job, lo, hi int) ([][]byte, error) {
		close(started)
		<-block
		return [][]byte{[]byte("a")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := m.Submit("check", 1, nil, countingRunner(t)) // stays queued
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	waitDone(t, b)
	if b.State() != Canceled {
		t.Fatalf("queued job state after Close = %v, want canceled", b.State())
	}
	close(block)
	// The running job had a single chunk, so it completes it and ends done
	// (a multi-chunk job would observe the shutdown at its next boundary).
	waitDone(t, a)
	if !a.State().Finished() {
		t.Fatalf("running job state after Close = %v, want terminal", a.State())
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.Close()
	if _, err := m.Submit("check", 1, nil, countingRunner(t)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// TestConcurrentSubmitCancelPoll is the crash-free race check: goroutines
// submitting, canceling, polling, listing, reading results and reaping
// concurrently. Run under -race.
func TestConcurrentSubmitCancelPoll(t *testing.T) {
	m := NewManager(Config{Workers: 4, QueueDepth: 256, Chunk: 4, ResultTTL: time.Minute})
	defer m.Close()
	const jobs = 40
	var wg sync.WaitGroup
	ids := make(chan string, jobs)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs/4; i++ {
				j, err := m.Submit("check", 32, nil, countingRunner(t))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- j.ID()
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
					m.Cancel(id)
				}
				if j, ok := m.Get(id); ok {
					_ = j.Info()
					var buf bytes.Buffer
					_, _ = j.WriteResults(&buf)
				}
				_ = m.List()
				_ = m.Stats()
				m.Reap()
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	pollWG.Wait()
	// Every job must reach a terminal state.
	for _, info := range m.List() {
		if j, ok := m.Get(info.ID); ok {
			waitDone(t, j)
		}
	}
	st := m.Stats()
	if st.Submitted != jobs {
		t.Fatalf("submitted = %d, want %d", st.Submitted, jobs)
	}
	if st.Completed+st.Canceled+st.Failed != jobs {
		t.Fatalf("terminal counts %d+%d+%d != %d", st.Completed, st.Canceled, st.Failed, jobs)
	}
}

// TestTerminalCountedBeforeVisible pins that a job's lifetime counter
// moves before its terminal state is visible: on a WAL-backed manager,
// whose terminal append would widen any gap between the two, every
// <-Done() already finds the job in Stats().Completed.
func TestTerminalCountedBeforeVisible(t *testing.T) {
	m := durableManager(t, t.TempDir(), 4)
	defer m.Close()
	for i := 1; i <= 300; i++ {
		j, err := m.Submit("check", 1, nil, countingRunner(t))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if got := m.Stats().Completed; got != int64(i) {
			t.Fatalf("job %d is done but Completed = %d", i, got)
		}
	}
}
