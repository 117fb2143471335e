// Package walstore is the local-disk jobstore.Store: a segmented NDJSON
// write-ahead log of job-lifecycle events plus out-of-band payload blobs.
// A Submitted event is fsynced before Append returns (the write-ahead
// guarantee), so a job accepted with a 202 survives the process; progress
// and terminal records are appended without sync — a crash loses at most
// the tail transitions, and replay then re-runs the job from its last
// durable chunk boundary.
//
// Layout under the store root:
//
//	LOCK                      single-writer flock (held while a process owns the store)
//	wal/seg-00000001.ndjson   log segments, one JSON record per line
//	payload/<jobID>.pay       submission payloads (runner reconstruction)
//
// One live process owns a store directory at a time: Open takes an
// exclusive flock on LOCK and fails with ErrLocked while another holder
// is alive. Process death releases the lock, so restart-after-crash — the
// reason this package exists — is never blocked by it.
//
// Each process opens a fresh segment (existing segments are never
// appended to, so a torn tail can only be the previous process's last
// line, which replay tolerates). Segments rotate at a size bound, and a
// prefix of fully-reaped segments — every job with records in them has a
// Removed marker — is deleted at open and after removals: retention is
// TTL-driven and roughly FIFO, so prefix compaction reclaims the log in
// practice. Payload blobs are deleted as soon as the job reaches a
// terminal state (they exist only to re-run interrupted jobs).
//
// All filesystem access goes through the faultfs seam (Options.FS,
// defaulting to the real filesystem), and directory entries are made
// durable the hard way: the wal and payload directories are fsynced after
// creation, after each new segment or payload blob, and after
// compaction deletes — a crash between a file's fsync and its parent
// directory's can otherwise lose the file wholesale. The crash-matrix
// tests in this package enumerate every filesystem operation of a
// lifecycle workload and pin the replay invariants at each crash point.
package walstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/jobs/jobstore"
)

// The open flag combinations the store uses.
const (
	osCreateTrunc = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	osCreateExcl  = os.O_CREATE | os.O_WRONLY | os.O_EXCL
)

// isNotExist matches not-found errors from any FS implementation.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// DefaultSegmentBytes is the default segment rotation bound.
const DefaultSegmentBytes = 4 << 20

// Options parameterizes Open. The zero value selects the defaults:
// fsync on submission, 4MB segments, the real filesystem.
type Options struct {
	// NoSync disables the fsync of Submitted (and Finished) records —
	// faster submits at the cost of the write-ahead guarantee across
	// machine crashes (a process kill still loses nothing: the records are
	// written before Append returns). Directory fsyncs are skipped too;
	// they exist for the same machine-crash guarantee. servebench's
	// walstore.append_us times the fsynced Append.
	NoSync bool
	// SegmentBytes rotates the active segment once it exceeds this size;
	// <=0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// NoLock skips the single-writer directory lock. The lock is what
	// keeps a second live process from replaying and re-running the
	// owner's in-flight jobs over a shared directory (and both from
	// sweeping each other's state); disable it only in crash-simulation
	// tests, where the "killed" predecessor is really still running in the
	// same process.
	NoLock bool
	// FS is the filesystem seam; nil selects the real filesystem
	// (faultfs.OS). Tests inject a faultfs.FaultFS to crash the store at
	// arbitrary operations.
	FS faultfs.FS
}

// ErrClosed rejects appends after Close.
var ErrClosed = errors.New("walstore: store is closed")

// ErrLocked reports that another live process owns the store directory.
// The flock is released when its owner exits — however it exits — so a
// crashed predecessor never wedges its successor; a live one refusing to
// share is the point (two managers over one log would re-run each other's
// jobs and sweep each other's state).
var ErrLocked = errors.New("walstore: store directory is locked by another process")

// record is the on-disk line form of an event: the event fields plus the
// out-of-band payload reference.
type record struct {
	jobstore.Event
	// PayloadRef is the payload blob's file name under payload/, recorded
	// on Submitted events that carried one.
	PayloadRef string `json:"payload,omitempty"`
}

// segment is one sealed (or active) log file and the set of jobs with
// records in it — the unit of compaction.
type segment struct {
	index int
	path  string
	jobs  map[string]struct{}
}

// Store is the write-ahead log. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	fs   faultfs.FS

	lock io.Closer // holds the single-writer flock; nil with NoLock

	mu       sync.Mutex
	segments []*segment // oldest first; the last one is active
	active   faultfs.File
	activeN  int64           // bytes written to the active segment
	damaged  bool            // active segment has torn bytes past activeN (failed self-heal)
	live     map[string]bool // job id -> submitted and not Removed
	replayed []record        // the on-disk history as of Open, for Replay
	closed   bool

	appends  int64
	syncs    int64
	badLines int64
	heals    int64
}

// Stats is a snapshot of the store's counters, for tests and operators.
type Stats struct {
	// Segments is the current log segment count (including the active one).
	Segments int `json:"segments"`
	// LiveJobs counts jobs whose history is retained (not Removed).
	LiveJobs int `json:"liveJobs"`
	// Appends and Syncs count records written and fsync calls issued
	// (file and directory fsyncs alike).
	Appends int64 `json:"appends"`
	Syncs   int64 `json:"syncs"`
	// BadLines counts undecodable log lines skipped during open (a torn
	// tail from a crashed process, or bytes torn by a failed append, are
	// the expected sources).
	BadLines int64 `json:"badLines"`
	// Heals counts failed appends the store repaired in place
	// (truncating the torn bytes) or sealed away (rotating to a fresh
	// segment) — the ENOSPC survival path.
	Heals int64 `json:"heals"`
}

// Open opens (creating if needed) the write-ahead log rooted at dir: it
// takes the single-writer lock (failing with ErrLocked when another live
// process owns the directory), scans the existing segments, compacts the
// fully-reaped prefix, removes orphaned payload blobs, and opens a fresh
// active segment.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	s := &Store{dir: dir, opts: opts, fs: opts.FS, live: map[string]bool{}}
	for _, sub := range []string{s.walDir(), s.payloadDir()} {
		if err := s.fs.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("walstore: creating %s: %w", sub, err)
		}
	}
	// Make the directory tree itself durable before anything is promised:
	// a crash must not be able to drop the wal/ or payload/ entries (and
	// with them every synced record) out from under a synced store.
	if err := s.syncDirs(filepath.Dir(dir), dir, s.walDir(), s.payloadDir()); err != nil {
		return nil, fmt.Errorf("walstore: syncing store directories: %w", err)
	}
	if !opts.NoLock {
		lock, err := s.fs.TryLock(filepath.Join(dir, "LOCK"))
		if err != nil {
			if errors.Is(err, faultfs.ErrLocked) {
				return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
			}
			return nil, fmt.Errorf("walstore: locking store directory: %w", err)
		}
		s.lock = lock
	}
	if err := s.scan(); err != nil {
		s.unlock()
		return nil, err
	}
	if s.compactLocked() {
		_ = s.syncDirs(s.walDir()) // best-effort: deletions re-run at next open
	}
	s.sweepPayloads()
	if err := s.rotateLocked(); err != nil {
		s.unlock()
		return nil, err
	}
	return s, nil
}

// syncDirs fsyncs the given directories unless NoSync opted out of
// durability altogether.
func (s *Store) syncDirs(dirs ...string) error {
	if s.opts.NoSync {
		return nil
	}
	if err := faultfs.SyncDirs(s.fs, dirs...); err != nil {
		return err
	}
	s.syncs += int64(len(dirs))
	return nil
}

// unlock releases the single-writer lock, if held.
func (s *Store) unlock() {
	if s.lock != nil {
		_ = s.lock.Close()
		s.lock = nil
	}
}

func (s *Store) walDir() string     { return filepath.Join(s.dir, "wal") }
func (s *Store) payloadDir() string { return filepath.Join(s.dir, "payload") }

// payloadPath is where a job's submission payload blob lives.
func (s *Store) payloadPath(job string) string {
	return filepath.Join(s.payloadDir(), job+".pay")
}

// segmentPath names the segment file with the given index.
func (s *Store) segmentPath(index int) string {
	return filepath.Join(s.walDir(), fmt.Sprintf("seg-%08d.ndjson", index))
}

// scan reads every existing segment in index order, building the
// live-job set, the per-segment job sets, and the replay buffer.
func (s *Store) scan() error {
	ents, err := s.fs.ReadDir(s.walDir())
	if err != nil {
		return fmt.Errorf("walstore: reading wal dir: %w", err)
	}
	var indices []int
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".ndjson") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".ndjson"))
		if err != nil {
			continue
		}
		indices = append(indices, n)
	}
	sort.Ints(indices)
	for _, idx := range indices {
		seg := &segment{index: idx, path: s.segmentPath(idx), jobs: map[string]struct{}{}}
		if err := s.scanSegment(seg); err != nil {
			return err
		}
		s.segments = append(s.segments, seg)
	}
	return nil
}

// scanSegment parses one segment's lines into the replay buffer.
// Undecodable lines (a torn tail from a killed process, or bytes a
// failed append left behind) are counted and skipped.
func (s *Store) scanSegment(seg *segment) error {
	f, err := s.fs.Open(seg.path)
	if err != nil {
		return fmt.Errorf("walstore: opening segment: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job == "" {
			s.badLines++
			continue
		}
		seg.jobs[rec.Job] = struct{}{}
		switch rec.Type {
		case jobstore.Submitted:
			s.live[rec.Job] = true
		case jobstore.Removed:
			delete(s.live, rec.Job)
		}
		s.replayed = append(s.replayed, rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("walstore: scanning segment %s: %w", seg.path, err)
	}
	return nil
}

// Append records one event; see the jobstore.Store contract. Submitted
// records (and their payload blobs) are synced before return unless
// NoSync is set. A failed or short write never wedges the store: the
// torn bytes are truncated away, or the segment is sealed and a fresh
// one opened, so subsequent appends land intact (ENOSPC safety).
func (s *Store) Append(ev *jobstore.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.damaged {
		// A previous append failed and could not be healed in place; retry
		// the seal-and-rotate before accepting new records.
		if err := s.rotateLocked(); err != nil {
			return fmt.Errorf("walstore: store damaged and rotation failed: %w", err)
		}
		s.damaged = false
	}
	rec := record{Event: *ev}
	switch ev.Type {
	case jobstore.Submitted:
		if len(ev.Payload) > 0 {
			if err := s.writePayload(ev.Job, ev.Payload); err != nil {
				return err
			}
			rec.PayloadRef = ev.Job + ".pay"
		}
		s.live[ev.Job] = true
	case jobstore.Finished:
		// The payload exists to re-run an interrupted job; a terminal job
		// will never run again.
		_ = s.fs.Remove(s.payloadPath(ev.Job))
	case jobstore.Removed:
		_ = s.fs.Remove(s.payloadPath(ev.Job))
		delete(s.live, ev.Job)
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("walstore: encoding record: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.active.Write(line); err != nil {
		s.healLocked()
		s.dropFailedSubmission(ev)
		return fmt.Errorf("walstore: appending record: %w", err)
	}
	s.activeN += int64(len(line))
	s.appends++
	seg := s.segments[len(s.segments)-1]
	seg.jobs[ev.Job] = struct{}{}
	if !s.opts.NoSync && (ev.Type == jobstore.Submitted || ev.Type == jobstore.Finished) {
		if err := s.active.Sync(); err != nil {
			// The record's durability cannot be promised; roll it back so a
			// rejected submission cannot resurrect at replay.
			s.activeN -= int64(len(line))
			s.appends--
			s.healLocked()
			s.dropFailedSubmission(ev)
			return fmt.Errorf("walstore: syncing segment: %w", err)
		}
		s.syncs++
	}
	if ev.Type == jobstore.Removed {
		if s.compactLocked() {
			_ = s.syncDirs(s.walDir()) // best-effort: deletions re-run at next open
		}
	}
	if s.activeN >= s.opts.SegmentBytes {
		// The record is already committed (and, for synced types, durable):
		// a failed size rotation is housekeeping, not a lost append.
		// Reporting it would make the caller treat a durably-accepted
		// submission as rejected — which replay would then resurrect as a
		// ghost job. Mark the store damaged and let the next Append retry.
		if err := s.rotateLocked(); err != nil {
			s.damaged = true
		}
	}
	return nil
}

// dropFailedSubmission unwinds the in-memory effects of a Submitted
// append that could not be made durable: the job is not live (the
// submission is failing upstream) and its payload blob is retired so a
// partially persisted record cannot be reconstructed into a ghost job.
// Called with s.mu held.
func (s *Store) dropFailedSubmission(ev *jobstore.Event) {
	if ev.Type != jobstore.Submitted {
		return
	}
	delete(s.live, ev.Job)
	if len(ev.Payload) > 0 {
		_ = s.fs.Remove(s.payloadPath(ev.Job))
	}
}

// healLocked repairs the active segment after a failed append: the torn
// bytes past activeN are truncated away, or — when the truncate itself
// fails — the segment is sealed and a fresh one opened so the torn bytes
// can only ever surface as BadLines at the next replay. If even rotation
// fails the store is marked damaged and the next Append retries. Called
// with s.mu held.
func (s *Store) healLocked() {
	s.heals++
	if s.active != nil {
		terr := s.active.Truncate(s.activeN)
		if terr == nil {
			if _, serr := s.active.Seek(s.activeN, io.SeekStart); serr == nil {
				return // healed in place: the segment ends at the last good record
			}
		}
	}
	if err := s.rotateLocked(); err != nil {
		s.damaged = true
	}
}

// writePayload persists one submission payload blob (synced unless
// NoSync, along with its directory entry), called with s.mu held. A
// failed write removes the partial blob: the submission is failing, and
// a torn blob must not be what a later replay reconstructs the job from.
func (s *Store) writePayload(job string, payload []byte) error {
	path := s.payloadPath(job)
	fail := func(f faultfs.File, err error, what string) error {
		if f != nil {
			_ = f.Close()
		}
		_ = s.fs.Remove(path)
		return fmt.Errorf("walstore: %s payload blob: %w", what, err)
	}
	f, err := s.fs.OpenFile(path, osCreateTrunc, 0o644)
	if err != nil {
		return fmt.Errorf("walstore: creating payload blob: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		return fail(f, err, "writing")
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			return fail(f, err, "syncing")
		}
		s.syncs++
	}
	if err := f.Close(); err != nil {
		return fail(nil, err, "closing")
	}
	// The blob is synced but its directory entry is not: without this a
	// crash can lose the whole file and with it the job it reconstructs.
	if err := s.syncDirs(s.payloadDir()); err != nil {
		return fail(nil, err, "syncing directory of")
	}
	return nil
}

// rotateLocked seals the active segment (if any) and opens the next one,
// making the new segment's directory entry durable before any record is
// promised to it. Called with s.mu held.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		// Seal fully durable: records appended since the last sync (and the
		// heal truncations) go to disk with the segment.
		if !s.opts.NoSync {
			if err := s.active.Sync(); err == nil {
				s.syncs++
			}
		}
		// A close error is not actionable: the handle is spent either way,
		// and replay tolerates whatever tail the sealed segment kept.
		// Failing the rotation here would wedge the damaged-retry path on a
		// handle that can never close twice.
		_ = s.active.Close()
		s.active = nil
	}
	next := 1
	if len(s.segments) > 0 {
		next = s.segments[len(s.segments)-1].index + 1
	}
	seg := &segment{index: next, path: s.segmentPath(next), jobs: map[string]struct{}{}}
	f, err := s.fs.OpenFile(seg.path, osCreateExcl, 0o644)
	if err != nil {
		return fmt.Errorf("walstore: creating segment: %w", err)
	}
	if err := s.syncDirs(s.walDir()); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(seg.path)
		return fmt.Errorf("walstore: syncing wal dir: %w", err)
	}
	s.segments = append(s.segments, seg)
	s.active = f
	s.activeN = 0
	return nil
}

// compactLocked deletes the longest prefix of sealed segments whose jobs
// are all Removed, reporting whether it deleted any (the caller owns the
// directory sync). Oldest-first order is what makes this safe: a job's
// Submitted record always precedes its Removed marker, so the marker can
// only be deleted together with — or after — every record it retires.
// Called with s.mu held.
func (s *Store) compactLocked() bool {
	removed := false
	for len(s.segments) > 0 {
		seg := s.segments[0]
		if s.active != nil && seg == s.segments[len(s.segments)-1] {
			return removed // never compact the active segment
		}
		for job := range seg.jobs {
			if s.live[job] {
				return removed
			}
		}
		if err := s.fs.Remove(seg.path); err != nil && !isNotExist(err) {
			return removed
		}
		removed = true
		s.segments = s.segments[1:]
	}
	return removed
}

// sweepPayloads removes payload blobs that no live job references
// (orphans of jobs finished or removed by a previous process).
func (s *Store) sweepPayloads() {
	ents, err := s.fs.ReadDir(s.payloadDir())
	if err != nil {
		return
	}
	for _, ent := range ents {
		job := strings.TrimSuffix(ent.Name(), ".pay")
		if job == ent.Name() || s.live[job] {
			continue
		}
		_ = s.fs.Remove(filepath.Join(s.payloadDir(), ent.Name()))
	}
}

// Replay invokes fn for every live job's events as of Open, in append
// order, loading Submitted payload blobs back into the events.
func (s *Store) Replay(fn func(ev *jobstore.Event) error) error {
	s.mu.Lock()
	records := make([]record, 0, len(s.replayed))
	for _, rec := range s.replayed {
		if s.live[rec.Job] {
			records = append(records, rec)
		}
	}
	s.mu.Unlock()
	for i := range records {
		rec := &records[i]
		if rec.Type == jobstore.Submitted && rec.PayloadRef != "" {
			data, err := s.fs.ReadFile(filepath.Join(s.payloadDir(), rec.PayloadRef))
			if err == nil {
				rec.Payload = data
			}
			// A missing blob is not fatal here: the manager fails the one
			// job it cannot reconstruct, not the whole recovery.
		}
		if err := fn(&rec.Event); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments: len(s.segments),
		LiveJobs: len(s.live),
		Appends:  s.appends,
		Syncs:    s.syncs,
		BadLines: s.badLines,
		Heals:    s.heals,
	}
}

// Close seals the active segment and releases the single-writer lock.
// Idempotent; appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.active != nil {
		err = s.active.Close()
		s.active = nil
	}
	s.unlock()
	return err
}
