package walstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobs/jobstore"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func replayAll(t *testing.T, s *Store) []jobstore.Event {
	t.Helper()
	var out []jobstore.Event
	if err := s.Replay(func(ev *jobstore.Event) error {
		e := *ev
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	now := time.Now().UTC().Truncate(time.Millisecond)
	events := []jobstore.Event{
		{Type: jobstore.Submitted, Job: "a", Time: now, Kind: "check", Total: 10, Chunk: 4, Payload: []byte("payload-a")},
		{Type: jobstore.Started, Job: "a", Time: now},
		{Type: jobstore.Progress, Job: "a", Time: now, Done: 4, ResultBytes: 40},
		{Type: jobstore.Submitted, Job: "b", Time: now, Kind: "complete", Total: 2, Chunk: 4, Payload: []byte("payload-b")},
		{Type: jobstore.Finished, Job: "a", Time: now, Done: 10, ResultBytes: 100, State: "done"},
	}
	for i := range events {
		if err := s.Append(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	got := replayAll(t, r)
	if len(got) != len(events) {
		t.Fatalf("replayed %d events, want %d", len(got), len(events))
	}
	for i, ev := range got {
		want := events[i]
		if ev.Type != want.Type || ev.Job != want.Job || ev.Kind != want.Kind ||
			ev.Total != want.Total || ev.Chunk != want.Chunk || ev.Done != want.Done ||
			ev.ResultBytes != want.ResultBytes || ev.State != want.State {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	// Job b is live and interrupted: its payload must come back. Job a is
	// finished: its blob was deleted at the Finished append.
	if !bytes.Equal(got[3].Payload, []byte("payload-b")) {
		t.Fatalf("job b payload = %q", got[3].Payload)
	}
	if len(got[0].Payload) != 0 {
		t.Fatalf("finished job a still has a payload blob: %q", got[0].Payload)
	}
}

func TestPayloadIsOutOfBand(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	payload := []byte(`{"docs":["<a/>"]}`)
	if err := s.Append(&jobstore.Event{Type: jobstore.Submitted, Job: "j1", Kind: "check", Total: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	// The blob lives under payload/, and the segment lines never embed it.
	blob, err := os.ReadFile(filepath.Join(dir, "payload", "j1.pay"))
	if err != nil || !bytes.Equal(blob, payload) {
		t.Fatalf("payload blob = %q, %v", blob, err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("wal dir: %v", err)
	}
	for _, ent := range ents {
		seg, err := os.ReadFile(filepath.Join(dir, "wal", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(seg, []byte("<a/>")) {
			t.Fatalf("segment %s embeds the payload", ent.Name())
		}
	}
	// Terminal state retires the blob.
	if err := s.Append(&jobstore.Event{Type: jobstore.Finished, Job: "j1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "payload", "j1.pay")); !os.IsNotExist(err) {
		t.Fatalf("payload blob survived the terminal state: %v", err)
	}
}

func TestSegmentationAndPrefixCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append rotates.
	s := mustOpen(t, dir, Options{NoSync: true, SegmentBytes: 1})
	jobs := []string{"a", "b", "c"}
	for _, j := range jobs {
		if err := s.Append(&jobstore.Event{Type: jobstore.Submitted, Job: j, Kind: "check", Total: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(&jobstore.Event{Type: jobstore.Finished, Job: j, State: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	// Removing a suffix job does not unblock the prefix (job a is live in
	// the oldest segment)...
	if err := s.Append(&jobstore.Event{Type: jobstore.Removed, Job: "c"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LiveJobs != 2 || st.Segments < 3 {
		t.Fatalf("after removing c: %+v", st)
	}
	// ...but removing oldest-first compacts the whole retired prefix.
	for _, j := range []string{"a", "b"} {
		if err := s.Append(&jobstore.Event{Type: jobstore.Removed, Job: j}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LiveJobs != 0 {
		t.Fatalf("live jobs = %d, want 0", st.LiveJobs)
	}
	if st.Segments > 2 {
		t.Fatalf("fully-retired log kept %d segments", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopen compacts the rest and replays nothing.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := replayAll(t, r); len(got) != 0 {
		t.Fatalf("removed jobs replayed: %+v", got)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{NoSync: true})
	if err := s.Append(&jobstore.Event{Type: jobstore.Submitted, Job: "a", Kind: "check", Total: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a half-written JSON line at the tail of
	// the newest segment.
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("wal dir: %v", err)
	}
	last := filepath.Join(dir, "wal", ents[len(ents)-1].Name())
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"progress","job":"a","do`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	got := replayAll(t, r)
	if len(got) != 1 || got[0].Type != jobstore.Submitted || got[0].Job != "a" {
		t.Fatalf("replay after torn tail = %+v", got)
	}
	if st := r.Stats(); st.BadLines != 1 {
		t.Fatalf("bad lines = %d, want 1", st.BadLines)
	}
}

func TestSyncAccounting(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "sync"), Options{})
	if err := s.Append(&jobstore.Event{Type: jobstore.Submitted, Job: "a", Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&jobstore.Event{Type: jobstore.Progress, Job: "a", Done: 1}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Syncs < 2 { // payload blob + submitted record
		t.Fatalf("syncs = %d, want >= 2", st.Syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ns := mustOpen(t, filepath.Join(dir, "nosync"), Options{NoSync: true})
	defer ns.Close()
	if err := ns.Append(&jobstore.Event{Type: jobstore.Submitted, Job: "a", Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	if st := ns.Stats(); st.Syncs != 0 {
		t.Fatalf("NoSync store issued %d syncs", st.Syncs)
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	// A second live opener is refused — two managers over one log would
	// re-run each other's jobs.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	// NoLock is the crash-simulation escape hatch.
	shared := mustOpen(t, dir, Options{NoLock: true})
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock; a successor opens cleanly.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Append(&jobstore.Event{Type: jobstore.Submitted, Job: "a"}); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}
