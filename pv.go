// Package pv is a potential-validity toolkit for document-centric XML — a
// from-scratch Go reproduction of:
//
//	Ionut E. Iacob, Alex Dekhtyar, Michael I. Dekhtyar.
//	"On Potential Validity of Document-Centric XML Documents." ICDE 2006.
//
// An XML document w is *potentially valid* with respect to a DTD T and root
// element r if some extension of w — obtained by inserting matching tag
// pairs only, never deleting, renaming or reordering anything — is valid.
// Potential validity is what a document-centric XML editor needs to check
// while markup is being layered over pre-existing text: intermediate states
// are almost never valid, but they must stay completable.
//
// The package compiles a DTD into a Schema and offers:
//
//   - whole-document checking (the paper's Problem PV) with the full
//     validity bit, in one streaming pass over a string, bytes, a reader
//     or a parsed tree, in time linear in document size (Theorem 4);
//   - per-element content checking (Problem ECPV) via the paper's
//     ECRecognizer over a DAG model of the DTD, with the depth bound that
//     tames PV-strong recursive DTDs;
//   - O(1) incremental guards for editing operations (Theorem 2,
//     Proposition 3) and a guarded editing Session;
//   - full (standard) DTD validation, for when the encoding is finished;
//   - DTD analysis: recursion classification (non-recursive / PV-weak /
//     PV-strong), reachability, usability and determinism lint.
//
// Quick start:
//
//	schema, err := pv.CompileDTD(dtdSource, "r", pv.Options{})
//	...
//	res, err := schema.CheckString("<r><a><b>A quick brown</b>...</r>")
//	if res.PotentiallyValid { ... }
package pv

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/reach"
	"repro/internal/receipt"
	"repro/internal/validator"
	"repro/internal/xmltext"
	"repro/internal/xsd"
)

// Options configures schema compilation. Its fields:
//
//   - MaxDepth bounds the depth of hypothetical extension documents
//     considered when the DTD is PV-strong recursive (Section 4.3.1 of the
//     paper). Zero selects the default (16).
//   - IgnoreWhitespaceText makes whitespace-only text nodes invisible to
//     the checker, which suits pretty-printed documents. Inside an EMPTY
//     element whitespace stays visible: EMPTY admits no character data, so
//     no insertion can make such a document valid. Document-centric
//     editing normally wants false.
//   - AllowAnyRoot accepts any declared element as document root.
//   - DisableFastPath skips the content-model DFA tables, so every check
//     runs on the PV recognizer. Verdicts are identical; it exists for
//     benchmarking and as an escape hatch.
//
// An Engine keys its schema store on all four.
type Options = core.Options

// Class is the paper's DTD classification (Definitions 6-8).
type Class = reach.Class

// Re-exported classification constants.
const (
	NonRecursive      = reach.NonRecursive
	PVWeakRecursive   = reach.PVWeakRecursive
	PVStrongRecursive = reach.PVStrongRecursive
)

// Schema is a DTD compiled for potential-validity checking and validation.
// It wraps the engine artifact, which carries the compiled core schema, the
// validator and the checker and completer pools; the engine pools are
// shared by registry-cached schemas, so warm checkers and completers
// survive cache hits.
type Schema struct{ eng *engine.Schema }

// ParseDTD parses DTD source text (internal/external subset syntax).
func ParseDTD(src string) (*DTD, error) {
	d, err := dtd.Parse(src)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// DTD is a parsed Document Type Definition.
type DTD struct{ d *dtd.DTD }

// Names returns the declared element names in declaration order.
func (d *DTD) Names() []string { return d.d.Names() }

// String renders the DTD back in declaration syntax.
func (d *DTD) String() string { return d.d.String() }

// Size returns the paper's k measure: total element occurrences across
// content models plus one per declaration.
func (d *DTD) Size() int { return d.d.Size() }

// Lint reports structural problems: undeclared references and XML 1.0
// determinism violations. An empty slice means the DTD is clean.
func (d *DTD) Lint() []string { return d.d.Validate() }

// Compile prepares the DTD for checking against the given root element.
func (d *DTD) Compile(root string, opts Options) (*Schema, error) {
	c, err := core.Compile(d.d, root, opts)
	if err != nil {
		return nil, err
	}
	v, err := validator.New(d.d, root)
	if err != nil {
		return nil, err
	}
	return &Schema{eng: engine.NewSchema(c, v)}, nil
}

// ParseXSD imports a W3C XML Schema (XSD) document, supported subset per
// internal/xsd, into the same representation as ParseDTD — the paper's
// Section 2 observation that potential validity only depends on the
// structural content model, whatever the schema language.
func ParseXSD(src string) (*DTD, error) {
	d, err := xsd.Parse(src)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// CompileXSD parses an XSD document and compiles it in one step.
func CompileXSD(src, root string, opts Options) (*Schema, error) {
	d, err := ParseXSD(src)
	if err != nil {
		return nil, err
	}
	return d.Compile(root, opts)
}

// CompileDTD parses and compiles in one step.
func CompileDTD(src, root string, opts Options) (*Schema, error) {
	d, err := ParseDTD(src)
	if err != nil {
		return nil, err
	}
	return d.Compile(root, opts)
}

// CompileDTDFile reads, parses and compiles a DTD file.
func CompileDTDFile(path, root string, opts Options) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CompileDTD(string(data), root, opts)
}

// MustCompileDTD is CompileDTD that panics on error; for tests and
// examples.
func MustCompileDTD(src, root string, opts Options) *Schema {
	s, err := CompileDTD(src, root, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Root returns the designated root element.
func (s *Schema) Root() string { return s.eng.Core.Root }

// Class returns the DTD's recursion classification.
func (s *Schema) Class() Class { return s.eng.Core.Class() }

// Result is the outcome of a potential-validity check.
type Result struct {
	// PotentiallyValid is the Problem PV verdict.
	PotentiallyValid bool
	// Valid is the standard validity verdict (Valid implies
	// PotentiallyValid).
	Valid bool
	// Detail explains the first potential-validity violation; empty when
	// PotentiallyValid.
	Detail string
}

// CheckString checks an XML string in one streaming pass, read in place
// with no tree built. The returned error covers lexical/well-formedness
// problems only; schema verdicts are in the Result. The pass stops at the
// first violation, so a document that is not potentially valid before it
// turns out malformed gets the not-PV verdict and no error, as on /check.
func (s *Schema) CheckString(xml string) (Result, error) { return s.CheckBytes(xmltext.View(xml)) }

// CheckDocument checks a parsed document: the stream checker runs over the
// tree's events, so the verdict is CheckString's on its serialization.
func (s *Schema) CheckDocument(doc *Document) Result {
	c := s.eng.Checker()
	defer s.eng.PutChecker(c)
	// A document's root is an element, so the run ends well-formed.
	res, _ := result(c, c.RunTree(doc.root))
	return res
}

// CheckBytes is CheckString over bytes, never copying the document into a
// string.
func (s *Schema) CheckBytes(xml []byte) (Result, error) {
	c := s.eng.Checker()
	defer s.eng.PutChecker(c)
	return result(c, c.RunBytes(xml))
}

// result maps a finished checker run onto a Result: a violation is a
// not-PV verdict, any other error is returned, and a clean run carries the
// checker's validity bit.
func result(c *core.StreamChecker, err error) (Result, error) {
	switch {
	case err == nil:
		return Result{PotentiallyValid: true, Valid: c.StrictlyValid()}, nil
	case core.IsViolation(err):
		return Result{Detail: err.Error()}, nil
	}
	return Result{}, err
}

// CheckStream checks an XML string in a single streaming pass without
// building a tree — the recommended mode for large documents. It returns
// nil when the document is potentially valid.
func (s *Schema) CheckStream(xml string) error { return s.CheckStreamBytes(xmltext.View(xml)) }

// CheckStreamBytes is CheckStream over bytes: token names and data are
// subslices of xml, element names resolve through the schema's name
// table, and an entity-free document is checked with no
// per-token allocation. The fastest way to check an mmap'd or pooled
// buffer.
func (s *Schema) CheckStreamBytes(xml []byte) error {
	c := s.eng.Checker()
	defer s.eng.PutChecker(c)
	return c.RunBytes(xml)
}

// CheckReader is CheckStream over an io.Reader: the document is lexed
// through a fixed sliding window and never held in memory, so peak usage is
// O(element depth + window) — typically a few hundred KB — no matter the
// document size. The verdict is identical to CheckStreamBytes over the
// same bytes. It returns nil when the document is potentially valid; the
// error otherwise explains the violation, well-formedness failure or read
// problem.
func (s *Schema) CheckReader(r io.Reader) error {
	c := s.eng.Checker()
	defer s.eng.PutChecker(c)
	return c.RunReader(r)
}

// Ref returns the schema's registry reference (a hex digest of source,
// kind, root and options) when the schema was compiled through an Engine,
// and "" otherwise. Documents in a mixed batch select their schema by this
// reference (any prefix of at least 8 hex digits).
func (s *Schema) Ref() string { return s.eng.Ref }

// Validate runs standard (full) DTD validation: the check for finished
// encodings. It returns nil when the document is valid.
func (s *Schema) Validate(doc *Document) error { return s.eng.Valid.Validate(doc.root) }

// ValidateString parses and fully validates an XML string.
func (s *Schema) ValidateString(xml string) error { return s.eng.Valid.ValidateString(xml) }

// CanInsertText reports whether a new text node may be created under the
// named element in a potentially valid document — the O(1) check of
// Proposition 3.
func (s *Schema) CanInsertText(element string) bool {
	return s.eng.Core.LT.Has(element) && s.eng.Core.LT.ReachesPCDATA(element)
}

// Reachable reports whether element "to" may occur (at any depth) inside
// element "from" — the reachability lookup of Definition 5.
func (s *Schema) Reachable(from, to string) bool { return s.eng.Core.LT.Reachable(from, to) }

// ElementClass returns the recursion classification of one element.
func (s *Schema) ElementClass(name string) Class { return s.eng.Core.LT.ElementClass(name) }

// Complete synthesizes a valid extension of a potentially valid document —
// the constructive counterpart of Definition 3 (and of the paper's
// Figure 3, where two <d> insertions complete Example 1's s). It returns a
// fresh document (the input is untouched) and the number of elements
// inserted. It fails if the document is not potentially valid within the
// schema's depth bound. The stream checker decides first, and an
// already-valid document skips the completion DP: it comes back unchanged,
// with zero insertions.
func (s *Schema) Complete(doc *Document) (*Document, int, error) {
	c := s.eng.Completer()
	ext, inserted, err := c.Complete(doc.root)
	s.eng.PutCompleter(c)
	if err != nil {
		return nil, 0, err
	}
	return &Document{root: ext}, inserted, nil
}

// Diff is the structured outcome of one completion: inserted count,
// per-insertion path/index/name records, and the completed document's
// serialization. See internal/diff for the path grammar.
type Diff = diff.Diff

// Insertion is one inserted element's path/position/name record inside a
// Diff.
type Insertion = diff.Insertion

// CompleteResult is the outcome of one batched completion (pv.Engine's
// CompleteBatch). Err covers lexical/well-formedness and routing problems;
// Detail explains a not-potentially-valid verdict; otherwise Output holds
// the completed document and Inserted/Insertions describe the edit.
type CompleteResult = engine.CompleteResult

// CompleteDiff completes doc and returns the structured diff alongside the
// completed document — the library twin of the engine's /complete routes.
// A Document holds the root subtree only, so the diff's serialization is
// root-level; CompleteBytes preserves prolog/epilog nodes too.
func (s *Schema) CompleteDiff(doc *Document) (*Document, *Diff, error) {
	c := s.eng.Completer()
	ext, nodes, err := c.CompleteTracked(doc.root)
	s.eng.PutCompleter(c)
	if err != nil {
		return nil, nil, err
	}
	return &Document{root: ext}, diff.Compute(ext, nodes), nil
}

// CompleteBytes completes an XML document held as bytes and returns the
// completed document plus the structured diff — the byte-path completion
// entry, the one the engine's /complete routes take. No tree is built:
// the output is the input with the inserted tags spliced in, so every
// input byte survives, prolog and epilog included, and an already-valid
// input comes back as itself. The returned error covers
// lexical/well-formedness problems and not-potentially-valid inputs.
func (s *Schema) CompleteBytes(xml []byte) ([]byte, *Diff, error) {
	c := s.eng.Completer()
	res, err := c.CompleteBytes(xml, true)
	if err != nil {
		s.eng.PutCompleter(c)
		return nil, nil, err
	}
	out := bytes.Clone(res.Output)
	s.eng.PutCompleter(c)
	return out, &Diff{Inserted: res.Inserted, Insertions: res.Insertions, Completed: string(out)}, nil
}

// Info summarizes the compiled schema for display.
func (s *Schema) Info() string {
	return fmt.Sprintf("root <%s>, %d elements, k=%d, class %s, depth bound %d",
		s.Root(), len(s.eng.Core.DTD.Order), s.eng.Core.DTD.Size(), s.Class(), s.eng.Core.EffectiveDepth())
}

// Engine is the concurrent checking front end: a schema registry that
// compiles sources once (keyed by content hash, root and options, under an
// LRU bound) plus a worker pool that fans batches of documents out over
// GOMAXPROCS-bounded workers, reusing per-worker streaming-checker state.
// It is the programmatic face of cmd/pvserve and the `pvcheck batch`
// subcommand. An Engine is safe for concurrent use.
type Engine struct{ e *engine.Engine }

// EngineConfig parameterizes NewEngine. The zero value is a good default:
// GOMAXPROCS workers, a 64-schema cache, no disk cache.
type EngineConfig struct {
	// Workers bounds batch concurrency; <=0 selects GOMAXPROCS.
	Workers int
	// SchemaCacheSize bounds the compiled-schema store's in-memory
	// capacity in schemas; <=0 selects 64.
	SchemaCacheSize int
	// SchemaCacheDir enables the disk tier: compiled schemas persist as
	// content-addressed blobs under this directory, so later engines (and
	// process restarts) rehydrate them instead of recompiling. Empty
	// disables the tier.
	SchemaCacheDir string
	// MaxDocBytes caps one document on the HTTP NDJSON stream routes
	// (/check/stream, /complete/stream); <=0 keeps the 64MB default. The
	// /check/raw route and CheckReader are never capped.
	MaxDocBytes int
	// JobWorkers bounds how many async jobs (SubmitBatch /
	// SubmitCompleteBatch) execute concurrently; each job's chunks still
	// share the engine-wide Workers bound. <=0 selects 2.
	JobWorkers int
	// JobQueueDepth bounds async jobs accepted but not yet running; a full
	// queue makes submission fail with ErrJobQueueFull. <=0 selects 64.
	JobQueueDepth int
	// JobResultTTL is how long a finished async job and its results are
	// retained before reaping; <=0 selects 15 minutes.
	JobResultTTL time.Duration
	// VolatileJobs keeps async jobs — state and results — in memory even
	// when SchemaCacheDir is set. By default a disk-backed engine records
	// every submission in a write-ahead log under <SchemaCacheDir>/jobs and
	// writes results through to <SchemaCacheDir>/jobs/results, so a
	// restarted engine re-serves finished jobs and re-runs interrupted
	// ones.
	VolatileJobs bool
	// JobWALNoSync skips the per-submission fsync of the job write-ahead
	// log: faster accepts, and a process kill still loses nothing — only a
	// machine crash can drop the un-synced tail.
	JobWALNoSync bool
}

// Doc is one batch input: an identifier (path, queue key, anything) plus
// the XML content — as a string (Content) or zero-copy bytes (Bytes).
// Setting SchemaRef (a prefix of another Schema's Ref) routes the document
// to that registry-cached schema, so one CheckBatch can carry a mixed
// multi-schema firehose; documents without a ref use the batch's schema.
type Doc = engine.Doc

// BatchResult is the verdict for one batch document. Err is set for
// lexical/well-formedness problems (no verdict); otherwise
// PotentiallyValid/Valid carry the verdict and Detail explains the first
// potential-validity violation.
type BatchResult = engine.Result

// BatchStats aggregates one CheckBatch call (counts, bytes, wall-clock,
// throughput).
type BatchStats = engine.BatchStats

// EngineStats is an engine's lifetime counter snapshot.
type EngineStats = engine.Stats

// RegistryStats is a schema-registry counter snapshot.
type RegistryStats = engine.RegistryStats

// NewEngine builds a concurrent checking engine. It panics when
// SchemaCacheDir is set but cannot be created or opened; use OpenEngine to
// handle that error (a zero-value config never fails).
func NewEngine(cfg EngineConfig) *Engine {
	e, err := OpenEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// OpenEngine builds a concurrent checking engine, reporting a disk cache
// directory that cannot be created or opened as an error.
func OpenEngine(cfg EngineConfig) (*Engine, error) {
	e, err := engine.Open(engine.Config{
		Workers:       cfg.Workers,
		CacheSize:     cfg.SchemaCacheSize,
		CacheDir:      cfg.SchemaCacheDir,
		MaxDocBytes:   cfg.MaxDocBytes,
		JobWorkers:    cfg.JobWorkers,
		JobQueueDepth: cfg.JobQueueDepth,
		JobResultTTL:  cfg.JobResultTTL,
		VolatileJobs:  cfg.VolatileJobs,
		JobWALNoSync:  cfg.JobWALNoSync,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// wrapEngineSchema rebuilds the thin public wrapper around a cached
// artifact; the heavy state (core, validator, checker and completer
// pools) is shared.
func wrapEngineSchema(es *engine.Schema) *Schema { return &Schema{eng: es} }

// CompileDTD resolves a DTD through the engine's registry: the first call
// for a given (source, root, options) compiles, subsequent calls hit the
// cache.
func (e *Engine) CompileDTD(src, root string, opts Options) (*Schema, error) {
	es, err := e.e.Compile(engine.DTDSource, src, root, opts)
	if err != nil {
		return nil, err
	}
	return wrapEngineSchema(es), nil
}

// CompileXSD is CompileDTD for the supported XML Schema subset.
func (e *Engine) CompileXSD(src, root string, opts Options) (*Schema, error) {
	es, err := e.e.Compile(engine.XSDSource, src, root, opts)
	if err != nil {
		return nil, err
	}
	return wrapEngineSchema(es), nil
}

// CheckBatch fans docs out over the engine's worker pool and returns one
// result per input, in input order, plus aggregate stats. Verdicts are
// identical to calling Schema.CheckString (or CheckBytes) per document
// sequentially. Documents carrying a SchemaRef are routed to the
// referenced schema; s covers the rest and may be nil when every document
// routes itself.
func (e *Engine) CheckBatch(s *Schema, docs []Doc) ([]BatchResult, BatchStats) {
	return e.e.CheckBatch(engSchema(s), docs)
}

// CheckAll is CheckBatch over bare XML strings.
func (e *Engine) CheckAll(s *Schema, xmls []string) ([]BatchResult, BatchStats) {
	return e.e.CheckAll(engSchema(s), xmls)
}

// Check runs one document synchronously on the caller's goroutine. s may
// be nil when the document routes itself by SchemaRef.
func (e *Engine) Check(s *Schema, d Doc) BatchResult { return e.e.Check(engSchema(s), d) }

// CheckReader checks one document streamed from r in bounded memory —
// O(element depth + sliding window) regardless of size, with no cap; the
// engine-side twin of Schema.CheckReader (HTTP: POST /check/raw). The
// verdict, full-validity bit included, is the same as Check's on the same
// bytes. It counts against the engine's worker bound and lifetime stats.
func (e *Engine) CheckReader(s *Schema, id string, r io.Reader) BatchResult {
	return e.e.CheckReader(engSchema(s), id, r)
}

// CompleteBatch fans docs out over the engine's worker pool, completing
// each potentially valid document into a valid one, and returns one
// CompleteResult per input, in input order, plus aggregate stats (the
// completion twin of CheckBatch, including SchemaRef routing). withDiff
// asks for per-insertion records in addition to the completed output.
// Outputs and inserted counts are identical to sequential per-document
// completion.
func (e *Engine) CompleteBatch(s *Schema, docs []Doc, withDiff bool) ([]CompleteResult, BatchStats) {
	return e.e.CompleteBatch(engSchema(s), docs, withDiff)
}

// Complete runs one document's completion synchronously on the caller's
// goroutine. s may be nil when the document routes itself by SchemaRef.
func (e *Engine) Complete(s *Schema, d Doc, withDiff bool) CompleteResult {
	return e.e.Complete(engSchema(s), d, withDiff)
}

// engSchema unwraps the engine artifact, tolerating a nil schema (the
// SchemaRef self-routing mode).
func engSchema(s *Schema) *engine.Schema {
	if s == nil {
		return nil
	}
	return s.eng
}

// Job is one asynchronously submitted batch: identity, lifecycle state
// (queued → running → done|failed|canceled), progress counters and the
// retained NDJSON results. See internal/jobs for the machinery.
type Job = jobs.Job

// JobInfo is a job snapshot (state, progress, timestamps) — the wire form
// of GET /jobs/{id}.
type JobInfo = jobs.Info

// JobStats snapshots the engine's job queue: queued/running gauges plus
// submitted/completed/failed/canceled/rejected/reaped lifetime counters.
type JobStats = jobs.Stats

// JobRecoveryStats is the outcome of a job write-ahead-log replay: how
// many interrupted jobs were re-queued from scratch, resumed at a chunk
// boundary, re-served as already finished, or found unrecoverable.
type JobRecoveryStats = jobs.RecoveryStats

// ErrJobQueueFull rejects SubmitBatch/SubmitCompleteBatch when the job
// queue is at capacity (HTTP 429 on the wire).
var ErrJobQueueFull = engine.ErrJobQueueFull

// ErrJobNotFound reports an unknown — or already reaped — job id from
// CancelJob (HTTP 404 on the wire).
var ErrJobNotFound = jobs.ErrNotFound

// SubmitBatch enqueues docs for asynchronous checking and returns the
// accepted job without waiting for any verdict — the async twin of
// CheckBatch, with identical per-document verdicts. Poll Job.Info (or wait
// on Job.Done) for progress; stream the verdicts with Job.WriteResults
// once it finishes. s is the default schema for documents without a
// SchemaRef and may be nil when every document routes itself. withReceipt
// also commits every verdict: once the job finishes, Job.Receipt carries
// the full receipt (anchored under the job's id on a disk-backed engine)
// and the root is persisted with the job's terminal record. Fails with
// ErrJobQueueFull when the queue is at capacity. The docs slice is
// retained until the job reaches a terminal state (then released, not
// held for the retention TTL); do not mutate it after submission.
func (e *Engine) SubmitBatch(s *Schema, docs []Doc, withReceipt bool) (*Job, error) {
	return e.e.SubmitCheckBatch(engSchema(s), docs, withReceipt)
}

// SubmitCompleteBatch enqueues docs for asynchronous completion — the
// async twin of CompleteBatch. Each retained NDJSON line is a /complete
// result object; withDiff and withReceipt act as on CompleteBatch and
// SubmitBatch.
func (e *Engine) SubmitCompleteBatch(s *Schema, docs []Doc, withDiff, withReceipt bool) (*Job, error) {
	return e.e.SubmitCompleteBatch(engSchema(s), docs, withDiff, withReceipt)
}

// Job returns a submitted job by id, while it is retained (finished jobs
// are reaped after EngineConfig.JobResultTTL).
func (e *Engine) Job(id string) (*Job, bool) { return e.e.Jobs().Get(id) }

// JobList snapshots every retained job, newest submission first.
func (e *Engine) JobList() []JobInfo { return e.e.Jobs().List() }

// CancelJob cancels a queued or running job (partial results are kept).
// It reports whether a cancellation was delivered; unknown or reaped ids
// return ErrJobNotFound.
func (e *Engine) CancelJob(id string) (bool, error) { return e.e.Jobs().Cancel(id) }

// RemoveJob drops a finished job right now — freeing its results (in
// memory, or its results file on a durable engine) without waiting for
// the TTL reaper. Active jobs are not removable (cancel first); it
// reports whether the job was removed.
func (e *Engine) RemoveJob(id string) bool { return e.e.Jobs().Remove(id) }

// JobStats snapshots the job queue's gauges and lifetime counters.
func (e *Engine) JobStats() JobStats { return e.e.Jobs().Stats() }

// JobRecovery reports the write-ahead-log replay outcome of OpenEngine
// and whether a recovery pass ran at all (it does whenever the engine has
// a persistent job store — SchemaCacheDir set and VolatileJobs false).
func (e *Engine) JobRecovery() (JobRecoveryStats, bool) { return e.e.JobRecovery() }

// Close stops the engine's async job workers and reaper; synchronous
// checking and completion remain usable. Running jobs are interrupted
// without waiting (a durable engine re-runs them on the next open); use
// Shutdown to drain them first.
func (e *Engine) Close() { e.e.Close() }

// Shutdown closes the engine and waits — bounded by ctx — for running
// jobs to finalize and the job write-ahead log to be released. It returns
// ctx.Err() when the drain outlives the context; the interrupted jobs
// recover on the next open.
func (e *Engine) Shutdown(ctx context.Context) error { return e.e.Shutdown(ctx) }

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// CacheStats returns the schema store's counters (the memory tier plus
// disk-tier activity when a cache directory is configured).
func (e *Engine) CacheStats() RegistryStats { return e.e.Store().Stats() }

// Handler returns the engine's HTTP API (the full pvserve surface:
// POST /check, POST /batch (+?async=1&receipt=1), the NDJSON streams, the
// /jobs routes, GET /schemas, GET /stats, GET /metrics, POST /verify),
// for embedding in a larger server.
func (e *Engine) Handler() http.Handler { return engine.NewServer(e.e) }

// Receipt is a batch's verifiable verdict commitment: a Merkle root over
// every (document, schema, verdict, insertions, content digest) tuple
// plus one inclusion proof per document. Verify entries offline with
// VerifyReceipt — no engine, schema or cache required.
type Receipt = engine.Receipt

// DocProof is one document's entry in a Receipt: the committed leaf and
// the inclusion proof binding it to the root.
type DocProof = engine.DocProof

// ReceiptLeaf is the claim a receipt commits for one document.
type ReceiptLeaf = receipt.Leaf

// ReceiptAnchor is one anchored root record from the engine's durable
// anchor log (ReceiptAnchors / GET /receipts).
type ReceiptAnchor = receipt.Anchor

// VerifyReceipt checks one document's inclusion proof against a receipt
// root. It is pure computation over its arguments — stateless and
// offline — so any holder of the root can audit a verdict.
func VerifyReceipt(root string, leaf ReceiptLeaf, proof string) bool {
	return receipt.Verify(root, leaf, proof)
}

// DigestContent returns the canonical content digest committed into
// receipt leaves, for recomputing a leaf's ContentDigest from the
// original document during an audit.
func DigestContent(content []byte) string { return receipt.DigestContent(content) }

// CheckBatchReceipt is CheckBatch plus a verdict receipt: identical
// results and stats, and a Receipt committing every verdict (nil for an
// empty batch). On a disk-backed engine the root is also anchored under
// the cache directory and survives restarts (ReceiptAnchors).
func (e *Engine) CheckBatchReceipt(s *Schema, docs []Doc) ([]BatchResult, BatchStats, *Receipt, error) {
	return e.e.CheckBatchReceipt(engSchema(s), docs)
}

// CompleteBatchReceipt is CompleteBatch plus a verdict receipt — the
// completion twin of CheckBatchReceipt.
func (e *Engine) CompleteBatchReceipt(s *Schema, docs []Doc, withDiff bool) ([]CompleteResult, BatchStats, *Receipt, error) {
	return e.e.CompleteBatchReceipt(engSchema(s), docs, withDiff)
}

// ReceiptAnchors lists every receipt root the engine (and predecessors on
// the same cache directory) anchored, oldest first; memory-only engines
// return an empty list.
func (e *Engine) ReceiptAnchors() ([]ReceiptAnchor, error) { return e.e.Anchors() }

// WriteMetrics writes the engine's observable state — everything Stats,
// CacheStats, JobStats and JobRecovery report — as a Prometheus
// text-format exposition (the GET /metrics body).
func (e *Engine) WriteMetrics(w io.Writer) error { return e.e.WriteMetrics(w) }
