package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/jobs"
	"repro/internal/receipt"
)

// The HTTP front end (cmd/pvserve) speaks JSON over these routes:
//
//	POST /check             one document           -> one verdict
//	POST /batch             many documents         -> verdicts + batch stats
//	POST /batch?async=1     many documents         -> 202 {jobId} (async job)
//	POST /check/raw         one raw XML body       -> one verdict (no size cap)
//	POST /check/stream      NDJSON document stream -> NDJSON verdict stream
//	POST /complete          many documents         -> completions + stats
//	POST /complete?async=1  many documents         -> 202 {jobId} (async job)
//	POST /complete/stream   NDJSON document stream -> NDJSON completion stream
//	GET  /jobs              retained async jobs (newest first)
//	GET  /jobs/{id}         one job's state + progress
//	GET  /jobs/{id}/results one job's verdicts as NDJSON
//	GET  /jobs/{id}/receipt one job's verdict receipt (root + proofs)
//	DELETE /jobs/{id}       cancel an active job / remove a finished one
//	GET  /schemas           cached compiled schemas (MRU first)
//	GET  /stats             registry + engine + job-queue lifetime counters
//	GET  /metrics           the same counters as a Prometheus exposition
//	POST /verify            check a receipt proof offline (no engine state)
//	GET  /receipts          anchored receipt roots, oldest first
//
// ?receipt=1 on /batch and /complete (sync or async) additionally commits
// every verdict into a Merkle tree (see internal/receipt): the response —
// or GET /jobs/{id}/receipt once an async job finishes — carries the root
// and one inclusion proof per document, verifiable offline with
// POST /verify or `pvcheck verify`.
//
// POST /check/batch and POST /complete/batch are aliases of /batch and
// /complete (async-capable spellings that name the workload explicitly).
//
// The POST routes carry the schema source inline; the registry dedupes by
// content hash, so resending the same schema with every request costs one
// hash, not one compilation. Documents may instead carry a "schemaRef" (a
// prefix of a cached schema's ref, as listed by GET /schemas), routing a
// mixed multi-schema firehose in one request; the inline schema then
// becomes optional.
//
// The *stream routes read their bodies incrementally — one JSON object per
// line, optionally gzip-encoded (Content-Encoding: gzip) — and flush one
// output line per document as soon as it is ready, with a bounded number
// of documents in flight (backpressure instead of buffering whole
// batches). A line with "schema"/"root" fields (re)sets the default
// schema for subsequent documents; other lines are documents
// {"id","content","schemaRef"}. The response ends with a {"stats":...}
// line. Each document is capped per engine (Config.MaxDocBytes, default
// MaxDocumentBytes), enforced on decompressed bytes (the request body as a
// whole is uncapped — that is the point of streaming).
//
// POST /check/raw escapes the per-document cap entirely: the body is one
// raw XML document — no JSON envelope, optionally gzip-encoded — checked in
// bounded memory (O(element depth + sliding window)) no matter its size.
// The schema comes from an X-Schema-Ref header or ?schemaRef= query
// parameter; the verdict, full-validity bit included, is the same as
// /check's on the same document.
//
// The /complete* routes answer with the completed document (a valid
// extension of a potentially valid input, per the paper's Definition 3)
// plus a structured diff: inserted count and per-insertion
// path/index/name records (internal/diff); "?diff=0" — or "diff": false
// in the /complete body — drops the records. A document that is not
// potentially valid yields a typed "detail" verdict, not an HTTP error.

// schemaRequest is the shared schema half of /check and /batch bodies.
type schemaRequest struct {
	Schema  string         `json:"schema"`         // DTD or XSD source text
	Kind    string         `json:"kind,omitempty"` // "dtd" (default) or "xsd"
	Root    string         `json:"root"`
	Options CompileOptions `json:"options,omitempty"`
}

type checkRequest struct {
	schemaRequest
	Document string `json:"document"`
}

type batchRequest struct {
	schemaRequest
	Documents []Doc `json:"documents"`
}

// completeRequest is the /complete body: the /batch shape plus the diff
// switch (nil means true — insertion records are on by default).
type completeRequest struct {
	schemaRequest
	Documents []Doc `json:"documents"`
	Diff      *bool `json:"diff,omitempty"`
}

type statsResponse struct {
	Registry RegistryStats `json:"registry"`
	Engine   Stats         `json:"engine"`
	Jobs     jobs.Stats    `json:"jobs"`
	// Recovery is the job-replay outcome of this process's boot — present
	// only when the engine runs on a persistent job store.
	Recovery *jobs.RecoveryStats `json:"recovery,omitempty"`
}

// jobAccepted is the 202 response of an async submission.
type jobAccepted struct {
	JobID    string `json:"jobId"`
	State    string `json:"state"`
	Total    int    `json:"total"`
	Location string `json:"location"`
}

// wantAsync reports whether the request selects the async job path
// (?async=1, true or yes).
func wantAsync(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("async")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// wantReceipt reports whether the request asks for a verdict receipt
// (?receipt=1, true or yes).
func wantReceipt(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("receipt")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// accepted answers an async submission: 202 with the job id, where to
// poll, and the state Submit accepted the job in. That is always queued: a
// job worker may already have moved the job on, which GET /jobs/{id}
// reports, but the answer to the submission does not race it.
func accepted(w http.ResponseWriter, j *jobs.Job) {
	w.Header().Set("Content-Type", "application/json")
	loc := "/jobs/" + j.ID()
	w.Header().Set("Location", loc)
	w.WriteHeader(http.StatusAccepted)
	_ = newEncoder(w).Encode(jobAccepted{
		JobID: j.ID(), State: jobs.Queued.String(), Total: j.Info().Total, Location: loc,
	})
}

// submitError maps job-submission failures: a full queue is 429, anything
// else a 500.
func submitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrJobQueueFull) {
		httpError(w, http.StatusTooManyRequests,
			"job queue is full; retry later or raise -job-queue")
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}

// NewServer returns the HTTP handler over e.
func NewServer(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", func(w http.ResponseWriter, r *http.Request) {
		var req checkRequest
		if !decode(w, r, &req) {
			return
		}
		s, ok := resolve(w, e, req.schemaRequest)
		if !ok {
			return
		}
		res := e.Check(s, Doc{Content: req.Document})
		writeResult(w, &res)
	})
	batch := func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if !decode(w, r, &req) {
			return
		}
		// The inline schema is optional when documents route themselves by
		// schemaRef; documents without a ref then get a per-document error.
		var s *Schema
		if req.Schema != "" || req.Root != "" {
			var ok bool
			if s, ok = resolve(w, e, req.schemaRequest); !ok {
				return
			}
		}
		withReceipt := wantReceipt(r)
		if wantAsync(r) {
			j, err := e.SubmitCheckBatch(s, req.Documents, withReceipt)
			if err != nil {
				submitError(w, err)
				return
			}
			accepted(w, j)
			return
		}
		var results []Result
		var stats BatchStats
		var rec *Receipt
		if withReceipt {
			var err error
			if results, stats, rec, err = e.CheckBatchReceipt(s, req.Documents); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
		} else {
			results, stats = e.CheckBatch(s, req.Documents)
		}
		writeReply(w, encodeReply(results, resultSize, appendResult, &stats, rec))
	}
	mux.HandleFunc("POST /batch", batch)
	mux.HandleFunc("POST /check/batch", batch)
	mux.HandleFunc("POST /check/raw", func(w http.ResponseWriter, r *http.Request) {
		serveCheckRaw(e, w, r)
	})
	mux.HandleFunc("POST /check/stream", func(w http.ResponseWriter, r *http.Request) {
		serveCheckStream(e, w, r)
	})
	complete := func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decode(w, r, &req) {
			return
		}
		var s *Schema
		if req.Schema != "" || req.Root != "" {
			var ok bool
			if s, ok = resolve(w, e, req.schemaRequest); !ok {
				return
			}
		}
		withDiff := wantDiff(r) && (req.Diff == nil || *req.Diff)
		withReceipt := wantReceipt(r)
		if wantAsync(r) {
			j, err := e.SubmitCompleteBatch(s, req.Documents, withDiff, withReceipt)
			if err != nil {
				submitError(w, err)
				return
			}
			accepted(w, j)
			return
		}
		var results []CompleteResult
		var stats BatchStats
		var rec *Receipt
		if withReceipt {
			var err error
			if results, stats, rec, err = e.CompleteBatchReceipt(s, req.Documents, withDiff); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
		} else {
			results, stats = e.CompleteBatch(s, req.Documents, withDiff)
		}
		writeReply(w, encodeReply(results, completionSize, appendCompletion, &stats, rec))
	}
	mux.HandleFunc("POST /complete", complete)
	mux.HandleFunc("POST /complete/batch", complete)
	mux.HandleFunc("POST /complete/stream", func(w http.ResponseWriter, r *http.Request) {
		serveCompleteStream(e, w, r)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		reply(w, map[string]any{"jobs": e.Jobs().List()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Jobs().Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job (unknown id, or reaped after its TTL)")
			return
		}
		reply(w, j.Info())
	})
	mux.HandleFunc("GET /jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Jobs().Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job (unknown id, or reaped after its TTL)")
			return
		}
		// The body alone cannot distinguish "every verdict" from "the
		// prefix a running/failed/canceled job retained", so the state
		// rides along: X-Job-State on every response, and ?require=done
		// turns anything but a complete set into a 409 for strict clients.
		state := j.State()
		w.Header().Set("X-Job-State", state.String())
		if r.URL.Query().Get("require") == "done" && state != jobs.Done {
			httpError(w, http.StatusConflict,
				"job is "+state.String()+", not done; results would be a partial set (drop require=done to fetch them)")
			return
		}
		// A running job streams the prefix retained so far; poll
		// GET /jobs/{id} to a terminal state first for the complete set.
		w.Header().Set("Content-Type", "application/x-ndjson")
		if _, err := j.WriteResults(w); err != nil {
			// Output may be half-written; the broken stream is the signal.
			return
		}
	})
	mux.HandleFunc("GET /jobs/{id}/receipt", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Jobs().Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job (unknown id, or reaped after its TTL)")
			return
		}
		if !j.State().Finished() {
			httpError(w, http.StatusConflict,
				"job is "+j.State().String()+"; the receipt is committed when the job finishes")
			return
		}
		root, data := j.Receipt()
		switch {
		case len(data) > 0:
			// The full receipt (root + per-document proofs) built by this
			// process.
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(data)
			if len(data) == 0 || data[len(data)-1] != '\n' {
				_, _ = w.Write([]byte("\n"))
			}
		case root != "":
			// Only the root survived a restart (proofs are recomputable from
			// the inputs but are not persisted); serve the root-only form.
			reply(w, map[string]any{
				"root": root,
				"note": "proofs were not retained across a restart; re-run the batch with ?receipt=1 to re-derive them",
			})
		default:
			httpError(w, http.StatusNotFound,
				"job has no receipt (submit with ?receipt=1 to commit one)")
		}
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Cancel an active job (queued: immediately; running: at its next
		// chunk boundary, keeping partial results and the record until TTL
		// reap); remove a finished one (its results become 404).
		id := r.PathValue("id")
		j, ok := e.Jobs().Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, "no such job (unknown id, or reaped after its TTL)")
			return
		}
		remove := func() {
			info := j.Info()
			// Remove can lose a race against a concurrent DELETE or the TTL
			// reaper — the loser answers 404 like any other missing job.
			if !e.Jobs().Remove(id) {
				httpError(w, http.StatusNotFound, "no such job (unknown id, or reaped after its TTL)")
				return
			}
			reply(w, map[string]any{"removed": true, "job": info})
		}
		if j.State().Finished() {
			remove()
			return
		}
		canceled := j.Cancel()
		if !canceled && j.State().Finished() {
			// The job finished between the check above and Cancel: honor the
			// finished-job contract (remove on the spot) rather than answer
			// an undocumented {"canceled": false}.
			remove()
			return
		}
		reply(w, map[string]any{"canceled": canceled, "job": j.Info()})
	})
	mux.HandleFunc("GET /schemas", func(w http.ResponseWriter, r *http.Request) {
		reply(w, map[string]any{"schemas": e.Store().Schemas()})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		out := statsResponse{Registry: e.Store().Stats(), Engine: e.Stats(), Jobs: e.Jobs().Stats()}
		if rec, ok := e.JobRecovery(); ok {
			out.Recovery = &rec
		}
		reply(w, out)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error here means the scraper hung up; there is no one
		// left to report it to.
		_ = e.WriteMetrics(w)
	})
	mux.HandleFunc("POST /verify", func(w http.ResponseWriter, r *http.Request) {
		// Stateless by design: verification touches no engine state, so a
		// receipt from any engine — or any epoch — checks here.
		var req verifyRequest
		if !decode(w, r, &req) {
			return
		}
		switch {
		case req.Receipt != nil:
			failed := req.Receipt.Verify()
			reply(w, verifyResponse{OK: len(failed) == 0, Checked: req.Receipt.Count, Failed: failed})
		case req.Root != "" && req.Leaf != nil && req.Proof != "":
			ok := receipt.Verify(req.Root, *req.Leaf, req.Proof)
			reply(w, verifyResponse{OK: ok, Checked: 1})
		default:
			httpError(w, http.StatusBadRequest,
				"body must carry either {receipt} or {root, leaf, proof}")
		}
	})
	mux.HandleFunc("GET /receipts", func(w http.ResponseWriter, r *http.Request) {
		anchors, err := e.Anchors()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if anchors == nil {
			anchors = []receipt.Anchor{}
		}
		reply(w, map[string]any{"anchors": anchors})
	})
	return mux
}

// verifyRequest is the POST /verify body: either one (root, leaf, proof)
// triple or a whole receipt.
type verifyRequest struct {
	Root    string        `json:"root,omitempty"`
	Leaf    *receipt.Leaf `json:"leaf,omitempty"`
	Proof   string        `json:"proof,omitempty"`
	Receipt *Receipt      `json:"receipt,omitempty"`
}

// verifyResponse is the POST /verify answer: whether every checked proof
// verified, how many were checked, and the batch indices that failed.
type verifyResponse struct {
	OK      bool  `json:"ok"`
	Checked int   `json:"checked"`
	Failed  []int `json:"failed,omitempty"`
}

// MaxRequestBytes bounds /check and /batch request bodies; a batch larger
// than this should be split client-side (or streamed — see ROADMAP).
const MaxRequestBytes = 64 << 20

// decode reads the body whole and decodes it into dst (decodeRequest),
// writing a 400 on failure and a 413 for a body over MaxRequestBytes.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := readBody(w, r, MaxRequestBytes)
	if err == nil {
		err = decodeRequest(body, dst)
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// resolve compiles the request's schema through the registry, writing a 422
// for schemas that do not compile.
func resolve(w http.ResponseWriter, e *Engine, req schemaRequest) (*Schema, bool) {
	kind, err := ParseSourceKind(req.Kind)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if req.Root == "" {
		httpError(w, http.StatusBadRequest, "missing root element")
		return nil, false
	}
	s, err := e.Compile(kind, req.Schema, req.Root, req.Options)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, fmt.Sprintf("schema does not compile: %v", err))
		return nil, false
	}
	return s, true
}

func reply(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	_ = newEncoder(w).Encode(body)
}

// writeReply writes a reply the wire's writer built, in one Write.
func writeReply(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// writeResult writes one verdict, as /check and /check/raw answer.
func writeResult(w http.ResponseWriter, res *Result) {
	writeReply(w, append(appendResult(make([]byte, 0, resultSize(res)+1), res), '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = newEncoder(w).Encode(map[string]string{"error": msg})
}

// newEncoder returns a json.Encoder on w that writes compact JSON with <,
// > and & as themselves. HTML escaping guards JSON pasted into a <script>
// element; everything this package writes is an API body, an NDJSON line
// or a stored record, where escaping turned each < and > of a document
// into six bytes. The JSON the server writes that does not grow with its
// documents goes through here; the rest goes through the wire's writer
// (wire.go), which writes the same bytes.
func newEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc
}
