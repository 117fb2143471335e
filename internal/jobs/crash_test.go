package jobs

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/faultfs/harness"
	"repro/internal/jobs/walstore"
)

// The end-to-end crash matrix: a whole manager lifecycle — submit, run to
// completion, remove, cancel mid-run, shutdown — over a WAL store whose
// filesystem crashes at every operation. The WAL lives on the fault
// filesystem; result files live on the real one (the manager writes
// them through package os), which splits the failure like a real machine
// crash splits it: the log loses its unsynced tail, the results directory
// keeps whatever the dead process wrote.
//
// The invariants, per job the original Submit acked:
//   - never-removed, never-canceled: the restarted manager drives it to
//     Done with results byte-equal to an uninterrupted run — whether it
//     replays as finished, resumes from a chunk boundary, or re-runs.
//   - removed: absent (the Removed record was durable) or resurrected
//     into SOME terminal state; if Done, results are complete.
//   - canceled: terminal; a lost cancel record legally re-runs to Done
//     (full results), a durable one re-serves Canceled.
//
// Jobs the Submit call rejected may still resurrect (the record can be
// durable even when the ack was not delivered) — ghosts are legal and the
// verifier simply ignores ids it never acked.

// crashRound tracks what the workload's manager acknowledged, so the
// verifier knows which invariants each job owes.
type crashRound struct {
	resultsDir string // real filesystem: survives the simulated crash
	doneID     string // ran to completion, never touched again
	removeID   string // completed, then Remove acked true
	cancelID   string // canceled between its first and second chunk
}

func (c *crashRound) workload(fsys *faultfs.FaultFS) error {
	st, err := walstore.Open("jobdb", walstore.Options{FS: fsys})
	if err != nil {
		return err
	}
	m := NewManager(Config{Workers: 2, Chunk: 4, ResultsDir: c.resultsDir, Store: st})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer m.Shutdown(ctx)

	// Job 1: a full clean lifecycle, final chunk partial (total 10, chunk 4).
	j1, err := m.Submit("check", 10, []byte("crash-payload-1"), func(_ *Job, lo, hi int) ([][]byte, error) {
		return mkLines(lo, hi), nil
	})
	if err != nil {
		return err
	}
	c.doneID = j1.ID()
	<-j1.Done()

	// Job 2: completes, then is removed — its log history retires and its
	// results file is deleted.
	j2, err := m.Submit("check", 8, []byte("crash-payload-2"), func(_ *Job, lo, hi int) ([][]byte, error) {
		return mkLines(lo, hi), nil
	})
	if err != nil {
		return err
	}
	<-j2.Done()
	if m.Remove(j2.ID()) {
		c.removeID = j2.ID()
	}

	// Job 3: canceled between chunk one and chunk two. The runner parks
	// inside chunk two until the cancel flag is set, so the between-chunks
	// check after it sees the cancellation deterministically... except the
	// check runs BEFORE each chunk: parking in chunk one's call and
	// canceling there means chunk two's pre-check fires. Results keep the
	// first chunk's four lines.
	started := make(chan struct{})
	proceed := make(chan struct{})
	defer func() {
		// A crash can strand the choreography; unblock the runner so
		// Shutdown's drain never hangs.
		select {
		case <-proceed:
		default:
			close(proceed)
		}
	}()
	j3, err := m.Submit("check", 12, []byte("crash-payload-3"), func(_ *Job, lo, hi int) ([][]byte, error) {
		if lo == 0 {
			close(started)
			<-proceed
		}
		return mkLines(lo, hi), nil
	})
	if err != nil {
		return err
	}
	c.cancelID = j3.ID()
	<-started
	j3.Cancel()
	close(proceed)
	<-j3.Done()

	return m.Shutdown(ctx)
}

// waitTerminal blocks until the job is terminal, bounded; it returns an
// error (not a Fatal) so the harness can print the crash-point repro.
func waitTerminal(j *Job) error {
	select {
	case <-j.Done():
		return nil
	case <-time.After(15 * time.Second):
		return fmt.Errorf("job %s stuck in state %s after recovery", j.ID(), j.State())
	}
}

func (c *crashRound) verify(fsys *faultfs.FaultFS) error {
	st, err := walstore.Open("jobdb", walstore.Options{FS: fsys})
	if err != nil {
		return fmt.Errorf("reopening WAL after crash: %w", err)
	}
	m := NewManager(Config{Workers: 2, Chunk: 4, ResultsDir: c.resultsDir, Store: st})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer m.Shutdown(ctx)
	res := &resolveReal{}
	if _, err := m.Recover(res.resolve); err != nil {
		return fmt.Errorf("Recover after crash: %w", err)
	}
	type want struct {
		id, label string
		total     int
		removed   bool
		canceled  bool
	}
	checks := []want{
		{id: c.doneID, label: "completed", total: 10},
		{id: c.removeID, label: "removed", total: 8, removed: true},
		{id: c.cancelID, label: "canceled", total: 12, canceled: true},
	}
	for _, w := range checks {
		if w.id == "" {
			continue // the crash landed before this job was acked
		}
		j, ok := m.Get(w.id)
		if !ok {
			if w.removed {
				continue // the Removed record was durable: correctly gone
			}
			return fmt.Errorf("%s job %s lost: acked submission did not replay", w.label, w.id)
		}
		if err := waitTerminal(j); err != nil {
			return err
		}
		state := j.State()
		switch {
		case w.removed, w.canceled:
			// Resurrected removed jobs and cancel records lost to the crash
			// may legally land anywhere terminal; a Done verdict must still
			// be backed by complete results.
			if !state.Finished() {
				return fmt.Errorf("%s job %s recovered non-terminal: %s", w.label, w.id, state)
			}
			if state == Done {
				if got := readResultsErr(j); got != expectedResults(w.total) {
					return fmt.Errorf("%s job %s done with wrong results (%d bytes, want %d)",
						w.label, w.id, len(got), len(expectedResults(w.total)))
				}
			}
		default:
			if state != Done {
				return fmt.Errorf("%s job %s recovered to %s (%s), want done",
					w.label, w.id, state, j.Info().Error)
			}
			if got := readResultsErr(j); got != expectedResults(w.total) {
				return fmt.Errorf("%s job %s results diverged after recovery: %d bytes, want %d",
					w.label, w.id, len(got), len(expectedResults(w.total)))
			}
		}
	}
	return nil
}

// readResultsErr drains a job's results, folding a read error into a
// never-matching sentinel (the caller compares against expected bytes).
func readResultsErr(j *Job) string {
	var buf []byte
	w := writerFunc(func(p []byte) (int, error) { buf = append(buf, p...); return len(p), nil })
	if _, err := j.WriteResults(w); err != nil {
		return "results unreadable: " + err.Error()
	}
	return string(buf)
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func managerRound(t *testing.T) func() harness.Round {
	return func() harness.Round {
		c := &crashRound{resultsDir: t.TempDir()}
		return harness.Round{Workload: c.workload, Verify: c.verify}
	}
}

// TestCrashMatrixManagerLifecycle crashes the WAL filesystem under a full
// manager lifecycle at every operation and asserts the recovered manager
// honors every acked submission.
func TestCrashMatrixManagerLifecycle(t *testing.T) {
	points := harness.Matrix(t, harness.Options{Package: "./internal/jobs"}, managerRound(t))
	t.Logf("crash points exercised: %d", points)
	if points < 60 {
		t.Errorf("crash matrix too small: %d points", points)
	}
}

// TestCrashMatrixManagerDropUnsyncedDirs is the same lifecycle under
// maximally adversarial directory recovery: any dir entry not pinned by
// an fsync of its parent is dropped.
func TestCrashMatrixManagerDropUnsyncedDirs(t *testing.T) {
	points := harness.Matrix(t, harness.Options{
		Package:          "./internal/jobs",
		DropUnsyncedDirs: true,
	}, managerRound(t))
	t.Logf("crash points exercised: %d", points)
	if points < 60 {
		t.Errorf("crash matrix too small: %d points", points)
	}
}
