// Package jobstore defines the persistence contract of the async job
// layer: an append-only log of job-lifecycle events (submission, start,
// per-chunk progress, terminal state, removal) behind a small Store
// interface. The jobs manager appends one event per transition and, on a
// fresh process, replays the log to rebuild its job table — re-queueing
// interrupted jobs and re-serving finished ones — so queued and running
// state no longer dies with the process.
//
// The interface is deliberately backend-shaped rather than file-shaped:
// the in-tree implementation is a local-disk write-ahead log
// (internal/jobs/walstore), and the same event vocabulary maps onto a
// Postgres table or an object-store log without changing the manager. A
// manager without a store persists nothing.
package jobstore

import "time"

// EventType names one kind of job-lifecycle event.
type EventType string

// The event vocabulary. One Submitted event opens a job's history; zero
// or more Started/Progress events follow; at most one Finished event
// closes it; a Removed event retires the history entirely (reap or
// explicit DELETE), letting log backends compact it away.
const (
	// Submitted records a job's acceptance: identity, workload kind, input
	// count, chunking config and the opaque payload the submitter needs to
	// reconstruct the job's Runner after a restart. It is the write-ahead
	// record — appended (and made durable by durable backends) before the
	// job is queued.
	Submitted EventType = "submitted"
	// Started records a worker claiming the job.
	Started EventType = "started"
	// Progress records one completed chunk: inputs processed so far and
	// the byte size of the results retained so far. A restarted manager
	// resumes from the newest Progress record.
	Progress EventType = "progress"
	// Finished records the terminal state (done/failed/canceled), the
	// final progress counters and the error message of a failed job.
	Finished EventType = "finished"
	// Removed retires the job's whole history: its record no longer
	// replays, and log backends may compact the underlying storage.
	Removed EventType = "removed"
)

// Event is one append-only record of a job's lifecycle. Fields beyond
// Type/Job/Time are populated per type (see the EventType docs); zero
// values are omitted on the wire.
type Event struct {
	// Type discriminates the record.
	Type EventType `json:"type"`
	// Job is the job id the record belongs to.
	Job string `json:"job"`
	// Time is when the transition happened.
	Time time.Time `json:"time"`

	// Kind, Total and Chunk describe the submission (Submitted only):
	// workload kind, input count, and the chunk size the job was submitted
	// with (replay re-runs with the same chunking even if the manager's
	// default changed).
	Kind  string `json:"kind,omitempty"`
	Total int    `json:"total,omitempty"`
	Chunk int    `json:"chunk,omitempty"`
	// Payload is the submitter-owned blob from which a job's Runner can be
	// reconstructed after a restart (for the engine: the serialized
	// documents plus schema references). Backends store it out of band —
	// it never travels inside log records — which is why the JSON tag
	// excludes it.
	Payload []byte `json:"-"`

	// Done and ResultBytes are the progress counters (Progress and
	// Finished): inputs processed and result bytes retained so far.
	Done        int   `json:"done,omitempty"`
	ResultBytes int64 `json:"resultBytes,omitempty"`

	// State is the terminal state name (Finished only): "done", "failed"
	// or "canceled".
	State string `json:"state,omitempty"`
	// Error explains a failed job (Finished only).
	Error string `json:"error,omitempty"`
	// Root is the job's verdict-receipt root record (Finished only, and
	// only for jobs submitted with receipts on). The root — a commitment
	// to every verdict the job produced — survives restarts through this
	// field; the per-document proofs are recomputable from the inputs and
	// are not persisted.
	Root string `json:"root,omitempty"`
}

// Store is a durable append-only event log with replay: a manager that has
// one writes submissions ahead and brings jobs back after a restart.
// Implementations must be safe for concurrent Append calls; Replay and
// Close are called without concurrent Appends (replay happens before the
// manager starts accepting submissions, Close after it stops).
type Store interface {
	// Append records one event. A Submitted event must be durable (synced,
	// unless the backend was configured to skip syncs) when Append returns
	// — it is the write-ahead guarantee the job layer's restart story
	// rests on. An Append error on submission fails the submission; errors
	// on later transitions are best-effort (the manager proceeds in
	// memory).
	Append(ev *Event) error
	// Replay invokes fn for every retained event, in append order,
	// skipping jobs whose history was Removed. A non-nil error from fn
	// aborts the replay and is returned.
	Replay(fn func(ev *Event) error) error
	// Close releases the store. Appends after Close fail.
	Close() error
}
