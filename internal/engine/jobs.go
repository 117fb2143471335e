package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/jobs"
	"repro/internal/receipt"
)

// The async ingest path: instead of holding an HTTP connection open while
// a huge corpus is checked, a client submits the batch as a *job*
// (POST /batch?async=1 → 202 {jobId}), polls GET /jobs/{id} for state and
// progress, and fetches the verdicts as NDJSON from GET /jobs/{id}/results
// once the job is done. The job layer (internal/jobs) owns the bounded
// queue, the worker pool, the state machine and result retention; this
// file adapts it to the engine: each job's runner drains chunks of the
// submitted documents through the same CheckBatch/CompleteBatch the
// synchronous routes use, so async verdicts are identical to synchronous
// ones (the end-to-end test pins this), progress advances once per chunk,
// and cancellation takes effect at chunk boundaries.
//
// On a durable engine every submission also persists a payload — the
// documents plus schema references — from which recoverRunner rebuilds
// the runner on a fresh process: per-document SchemaRefs and the default
// schema's registry ref resolve through the store (the disk tier
// resurrects compiled schemas across restarts), so a replayed job produces
// byte-identical verdicts without the submitting process.

// ErrJobQueueFull rejects an async submission when the job queue is at
// capacity — the HTTP layer maps it to 429.
var ErrJobQueueFull = jobs.ErrQueueFull

// Jobs returns the engine's async job manager (queue, state, results).
func (e *Engine) Jobs() *jobs.Manager { return e.jobs }

// jobPayload is the persisted submission: everything recoverRunner needs
// to rebuild the job on a fresh process. Documents carry their content
// inline (Bytes base64-encoded); schemas travel as registry refs, never as
// compiled artifacts. appendJobPayload writes it and recoverRunner decodes
// it with encoding/json.
type jobPayload struct {
	Op     string `json:"op"`               // "check" or "complete"
	Schema string `json:"schema,omitempty"` // default schema's registry ref
	// HasDefault distinguishes "submitted without a default schema" (docs
	// route themselves; errors reproduce faithfully) from "the default
	// schema had no registry ref to persist" (unrecoverable).
	HasDefault bool         `json:"hasDefault,omitempty"`
	Diff       bool         `json:"diff,omitempty"` // completion: emit per-insertion records
	Receipt    bool         `json:"receipt,omitempty"`
	Docs       []payloadDoc `json:"docs"`
}

// payloadDoc is one persisted batch input. Doc.Bytes is json:"-" on the
// wire type (the HTTP layer must never echo raw documents), so the
// payload needs its own decodable shape.
type payloadDoc struct {
	ID      string `json:"id,omitempty"`
	Ref     string `json:"ref,omitempty"` // per-document SchemaRef
	Content string `json:"c,omitempty"`
	Bytes   []byte `json:"b,omitempty"`
}

// encodeJobPayload serializes a submission for the write-ahead log — nil
// (skip the cost) when the engine has no job store and nothing would
// replay it anyway.
func (e *Engine) encodeJobPayload(op string, s *Schema, docs []Doc, diff, withReceipt bool) []byte {
	if !e.jobs.Durable() {
		return nil
	}
	// A schema compiled outside the registry has no ref to persist; the job
	// still runs now, but a restart cannot rebuild it — recovery will fail
	// the job with a clear error instead of guessing. The buffer is the
	// store's to keep: it is not pooled.
	return appendJobPayload(make([]byte, 0, jobPayloadSize(s, docs)), op, s, docs, diff, withReceipt)
}

// recoverRunner is the jobs.RunnerResolver the engine hands to
// Manager.Recover: it decodes a persisted payload and rebuilds the runner
// through jobRunner, exactly as Submit built it, resolving schemas by ref
// through the (disk-tier-backed) registry. Errors mark the job Failed — a
// terminal answer for pollers — rather than losing it.
func (e *Engine) recoverRunner(sub jobs.Submission) (jobs.Runner, error) {
	if len(sub.Payload) == 0 {
		return nil, errors.New("submission has no persisted payload")
	}
	var p jobPayload
	if err := json.Unmarshal(sub.Payload, &p); err != nil {
		return nil, fmt.Errorf("decoding persisted payload: %w", err)
	}
	if len(p.Docs) != sub.Total {
		return nil, fmt.Errorf("persisted payload has %d documents, submission recorded %d", len(p.Docs), sub.Total)
	}
	var def *Schema
	if p.HasDefault {
		if p.Schema == "" {
			return nil, errors.New("default schema was not registry-backed; cannot rebuild")
		}
		s, err := e.store.ResolveRef(p.Schema)
		if err != nil {
			return nil, fmt.Errorf("resolving default schema %s: %w", p.Schema, err)
		}
		def = s
	}
	docs := make([]Doc, len(p.Docs))
	for i, pd := range p.Docs {
		docs[i] = Doc{ID: pd.ID, Content: pd.Content, Bytes: pd.Bytes, SchemaRef: pd.Ref}
	}
	return e.jobRunner(p.Op, def, docs, p.Diff, p.Receipt)
}

// jobRunner builds the chunk runner of an async job of op ("check" or
// "complete") over docs — the one construction Submit and recoverRunner
// share, so a replayed job runs exactly what the original would have.
// Each call drains docs[lo:hi] through the same CheckBatch/CompleteBatch
// the synchronous routes use. With withReceipt the runner also commits
// every verdict and, when the last document lands, attaches the job's
// receipt, anchored under the job's id, before the job finishes. The
// manager runs a job's chunks one at a time, so the leaves need no lock.
// A resumed recovered job skips its durable chunks, never fills its
// leaves and builds no fresh receipt; the root persisted with its
// terminal record, when one exists, still serves.
func (e *Engine) jobRunner(op string, s *Schema, docs []Doc, withDiff, withReceipt bool) (jobs.Runner, error) {
	var chunk func(lo, hi int, leaves []receipt.Leaf) [][]byte
	switch op {
	case "check":
		chunk = func(lo, hi int, leaves []receipt.Leaf) [][]byte {
			return e.checkChunk(s, docs, lo, hi, leaves)
		}
	case "complete":
		chunk = func(lo, hi int, leaves []receipt.Leaf) [][]byte {
			return e.completeChunk(s, docs, withDiff, lo, hi, leaves)
		}
	default:
		return nil, fmt.Errorf("unknown job op %q", op)
	}
	var leaves []receipt.Leaf
	if withReceipt {
		leaves = make([]receipt.Leaf, len(docs))
	}
	filled := 0
	return func(j *jobs.Job, lo, hi int) ([][]byte, error) {
		lines := chunk(lo, hi, leaves)
		if leaves == nil {
			return lines, nil
		}
		if filled += hi - lo; filled == len(leaves) {
			e.attachReceipt(j, op, leaves)
		}
		return lines, nil
	}, nil
}

// checkChunk checks docs[lo:hi] and encodes one verdict line per
// document. A non-nil leaves receives each document's committed leaf at
// its batch index.
func (e *Engine) checkChunk(s *Schema, docs []Doc, lo, hi int, leaves []receipt.Leaf) [][]byte {
	results, _ := e.CheckBatch(s, docs[lo:hi])
	for i := range results {
		results[i].Index = lo + i
		if leaves != nil {
			leaves[lo+i] = docLeaf(&docs[lo+i], s, checkVerdict(&results[i]), 0)
		}
	}
	return chunkLines(results, resultSize, appendResult)
}

// chunkLines writes one result line per result, through item, into one
// buffer that size sizes, and returns the lines.
func chunkLines[R any](results []R, size func(*R) int, item func([]byte, *R) []byte) [][]byte {
	n := 0
	for i := range results {
		n += size(&results[i])
	}
	buf := make([]byte, 0, n)
	lines := make([][]byte, len(results))
	for i := range results {
		start := len(buf)
		buf = item(buf, &results[i])
		lines[i] = buf[start:len(buf):len(buf)]
	}
	return lines
}

// completeChunk is the CompleteBatch twin of checkChunk: one /complete
// result line per document, and leaves committing the completion verdict
// and insertion count.
func (e *Engine) completeChunk(s *Schema, docs []Doc, withDiff bool, lo, hi int, leaves []receipt.Leaf) [][]byte {
	results, _ := e.CompleteBatch(s, docs[lo:hi], withDiff)
	for i := range results {
		results[i].Index = lo + i
		if leaves != nil {
			leaves[lo+i] = docLeaf(&docs[lo+i], s, completeVerdict(&results[i]), int64(results[i].Inserted))
		}
	}
	return chunkLines(results, completionSize, appendCompletion)
}

// submit enqueues one async job of op over docs: the runner jobRunner
// builds, plus the payload a restart rebuilds it from (written ahead on a
// durable engine).
func (e *Engine) submit(op string, s *Schema, docs []Doc, withDiff, withReceipt bool) (*jobs.Job, error) {
	run, err := e.jobRunner(op, s, docs, withDiff, withReceipt)
	if err != nil {
		return nil, err
	}
	return e.jobs.Submit(op, len(docs), e.encodeJobPayload(op, s, docs, withDiff, withReceipt), run)
}

// SubmitCheckBatch enqueues docs for asynchronous checking and returns
// the accepted job without waiting for any verdict. The job's workers
// drain the documents through CheckBatch in chunks — identical verdicts,
// SchemaRef routing and lifetime accounting as the synchronous call — and
// retain one NDJSON verdict line per document. s is the default schema
// for documents without a SchemaRef and may be nil when every document
// routes itself. withReceipt additionally commits every verdict: once the
// last chunk lands the job carries the receipt (Job.Receipt,
// Info.ReceiptRoot, GET /jobs/{id}/receipt), anchored under the job's id.
// The root is persisted with the job's terminal record; proofs live for
// the job's retention only. Fails with ErrJobQueueFull when the queue is
// at capacity. The docs slice is retained until the job reaches a
// terminal state (it is released at finish, not held for the retention
// TTL); callers must not mutate it after submission. On a durable store
// the submission is logged write-ahead (documents and schema refs
// persisted), so the job survives a process restart.
func (e *Engine) SubmitCheckBatch(s *Schema, docs []Doc, withReceipt bool) (*jobs.Job, error) {
	return e.submit("check", s, docs, false, withReceipt)
}

// SubmitCompleteBatch enqueues docs for asynchronous completion — the
// CompleteBatch twin of SubmitCheckBatch. Each retained NDJSON line is a
// /complete result object (completed output, inserted count, and the
// per-insertion records when withDiff is set).
func (e *Engine) SubmitCompleteBatch(s *Schema, docs []Doc, withDiff, withReceipt bool) (*jobs.Job, error) {
	return e.submit("complete", s, docs, withDiff, withReceipt)
}
