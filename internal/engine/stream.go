package engine

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// MaxDocumentBytes is the default per-document cap on the NDJSON streaming
// endpoints (Config.MaxDocBytes overrides it per engine). Unlike
// MaxRequestBytes (which bounds whole /check, /batch and /complete bodies),
// this is a per-document bound: a stream may carry terabytes as long as
// each document fits. POST /check/raw has no cap at all — it checks a
// single document of any size in bounded memory.
const MaxDocumentBytes = 64 << 20

// streamLine is one NDJSON request line: either a schema header (Schema or
// Root set) that (re)establishes the default schema for subsequent
// documents, or a document.
type streamLine struct {
	Schema  string         `json:"schema,omitempty"`
	Kind    string         `json:"kind,omitempty"`
	Root    string         `json:"root,omitempty"`
	Options CompileOptions `json:"options,omitempty"`

	ID        string `json:"id,omitempty"`
	Content   string `json:"content,omitempty"`
	SchemaRef string `json:"schemaRef,omitempty"`
}

func (ln *streamLine) isHeader() bool { return ln.Schema != "" || ln.Root != "" }

// streamFail is a terminal stream error: reported as a real HTTP status if
// no output has been flushed yet, and as a final {"error":...} line
// otherwise.
type streamFail struct {
	code int
	msg  string
}

// streamOut is the outcome of one streamed document: line appends its
// wire line to dst once the final stream index is known, and tally and
// inserted are its verdict accounting.
type streamOut struct {
	line     func(dst []byte, index int) []byte
	tally    Result
	inserted int
}

// streamRunner runs one document on behalf of a streaming endpoint. The
// check and complete streams differ only here; the reading, backpressure,
// ordering and error discipline are shared.
type streamRunner func(e *Engine, s *Schema, d Doc) streamOut

// streamJob is one unit in the ordered result pipeline: a pending outcome,
// or a terminal failure.
type streamJob struct {
	res  chan streamOut // buffered(1), written by the worker goroutine
	fail *streamFail
}

// streamStats is the closing NDJSON line.
type streamStats struct {
	Stats BatchStats `json:"stats"`
}

// runCheck adapts the checking path to the shared stream pipeline.
func runCheck(e *Engine, s *Schema, d Doc) streamOut {
	res := e.Check(s, d)
	return streamOut{
		line:  func(dst []byte, i int) []byte { res.Index = i; return appendResult(dst, &res) },
		tally: res,
	}
}

// runComplete adapts the completion path to the shared stream pipeline.
func runComplete(withDiff bool) streamRunner {
	return func(e *Engine, s *Schema, d Doc) streamOut {
		res := e.Complete(s, d, withDiff)
		return streamOut{
			line:     func(dst []byte, i int) []byte { res.Index = i; return appendCompletion(dst, &res) },
			tally:    res.tallyResult(),
			inserted: res.Inserted,
		}
	}
}

// serveCheckStream implements POST /check/stream.
func serveCheckStream(e *Engine, w http.ResponseWriter, r *http.Request) {
	serveDocStream(e, w, r, runCheck)
}

// serveCompleteStream implements POST /complete/stream; ?diff=0 drops the
// per-insertion records (the completed output always travels).
func serveCompleteStream(e *Engine, w http.ResponseWriter, r *http.Request) {
	serveDocStream(e, w, r, runComplete(wantDiff(r)))
}

// wantDiff reads the diff query parameter; insertion records default to on.
func wantDiff(r *http.Request) bool {
	switch r.URL.Query().Get("diff") {
	case "0", "false", "no":
		return false
	}
	return true
}

// streamBody resolves the request's Content-Encoding: identity bodies pass
// through, gzip bodies are inflated transparently (the per-document cap
// then applies to the *decompressed* bytes, since every downstream limit —
// the scanner's line bound and the explicit content check — sees inflated
// data). The cleanup closes the inflater; a nil reader means the encoding
// was rejected and an error response has been written.
func streamBody(w http.ResponseWriter, r *http.Request) (io.Reader, func()) {
	switch enc := strings.ToLower(r.Header.Get("Content-Encoding")); enc {
	case "", "identity":
		return r.Body, func() {}
	case "gzip", "x-gzip":
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad gzip request body: %v", err))
			return nil, func() {}
		}
		return zr, func() { _ = zr.Close() }
	default:
		httpError(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("unsupported Content-Encoding %q (want gzip or identity)", enc))
		return nil, func() {}
	}
}

// serveDocStream is the shared NDJSON document-stream pipeline behind
// POST /check/stream and POST /complete/stream: documents are read
// incrementally off the request body (optionally gzip-encoded), processed
// with at most 2×workers in flight (the reader blocks when the window is
// full — TCP backpressure instead of buffering), and each outcome is
// flushed as soon as it is ready, in input order.
func serveDocStream(e *Engine, w http.ResponseWriter, r *http.Request, run streamRunner) {
	start := time.Now()
	body, closeBody := streamBody(w, r)
	if body == nil {
		return
	}
	defer closeBody()
	// A stream reads the body for as long as the client keeps sending;
	// lift the server's ReadTimeout for this request only (the slow-client
	// protection of the bounded routes stays in place). Verdicts flush
	// while the body is still arriving, so enable full duplex: otherwise
	// Go's HTTP/1.1 server discards and closes the unread body on the
	// first flush. Errors are ignored: test recorders and exotic
	// transports simply keep their defaults.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.EnableFullDuplex()
	sc := bufio.NewScanner(body)
	// A JSON-escaped document inflates by at most 2x for sane inputs; the
	// slack keeps a cap-sized document scannable while still bounding one
	// line's buffer.
	sc.Buffer(make([]byte, 64<<10), 2*e.maxDocBytes+(64<<10))

	inflight := 2 * e.workers
	queue := make(chan streamJob, inflight)
	writerDead := make(chan struct{})

	stats := BatchStats{Workers: e.workers}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		started, discard, failed := false, false, false
		flush := func() {}
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		// emit writes one line: a document's line as the writer built it,
		// or, with line nil, v through encoding/json.
		enc := newEncoder(w)
		emit := func(line []byte, v any) {
			if discard {
				return
			}
			if !started {
				w.Header().Set("Content-Type", "application/x-ndjson")
				started = true
			}
			var err error
			if line != nil {
				_, err = w.Write(line)
			} else {
				err = enc.Encode(v)
			}
			if err != nil {
				// Client is gone; keep draining so the reader never blocks
				// on a full queue.
				discard = true
				close(writerDead)
				return
			}
			flush()
		}
		var line []byte // reused for every document's line
		for j := range queue {
			if j.fail != nil {
				failed = true
				if !started && !discard {
					httpError(w, j.fail.code, j.fail.msg)
					discard = true
				} else {
					emit(nil, map[string]string{"error": j.fail.msg})
				}
				continue
			}
			out := <-j.res
			index := stats.Docs
			stats.Docs++
			out.tally.Index = index
			stats.tally(&out.tally)
			stats.Inserted += int64(out.inserted)
			line = append(out.line(line[:0], index), '\n')
			emit(line, nil)
		}
		if !failed {
			stats.Elapsed = time.Since(start)
			if secs := stats.Elapsed.Seconds(); secs > 0 {
				stats.DocsPerSec = float64(stats.Docs) / secs
				stats.MBPerSec = float64(stats.Bytes) / (1 << 20) / secs
			}
			emit(nil, streamStats{Stats: stats})
		}
	}()

	// enqueue hands a job to the writer, giving up if the writer or client
	// died; false stops the read loop.
	enqueue := func(j streamJob) bool {
		select {
		case queue <- j:
			return true
		case <-writerDead:
			return false
		case <-r.Context().Done():
			return false
		}
	}
	terminal := func(code int, msg string) {
		enqueue(streamJob{fail: &streamFail{code: code, msg: msg}})
	}

	var cur *Schema
	lineNo := 0
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		lineNo++
		// Decode a copy: the scanner reuses raw's buffer for later lines
		// while this line's document, a view of what it decodes, may still
		// be in flight.
		var ln streamLine
		if err := decodeRequest(bytes.Clone(raw), &ln); err != nil {
			terminal(http.StatusBadRequest, fmt.Sprintf("line %d: bad JSON: %v", lineNo, err))
			break
		}
		if ln.isHeader() {
			kind, err := ParseSourceKind(ln.Kind)
			if err != nil {
				terminal(http.StatusBadRequest, fmt.Sprintf("line %d: %v", lineNo, err))
				break
			}
			if ln.Root == "" {
				terminal(http.StatusBadRequest, fmt.Sprintf("line %d: schema header missing root element", lineNo))
				break
			}
			s, err := e.Compile(kind, ln.Schema, ln.Root, ln.Options)
			if err != nil {
				terminal(http.StatusUnprocessableEntity, fmt.Sprintf("line %d: schema does not compile: %v", lineNo, err))
				break
			}
			cur = s
			continue
		}
		if len(ln.Content) > e.maxDocBytes {
			terminal(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("line %d: document %q is %d bytes; the per-document cap is %d", lineNo, ln.ID, len(ln.Content), e.maxDocBytes))
			break
		}
		j := streamJob{res: make(chan streamOut, 1)}
		if !enqueue(j) {
			break
		}
		// run blocks on the engine-wide worker bound, resolves the
		// document's SchemaRef (or uses the current default) and accounts
		// lifetime counters; the buffered channel means no goroutine leaks
		// even if the writer has given up.
		go func(s *Schema, d Doc) {
			j.res <- run(e, s, d)
		}(cur, Doc{ID: ln.ID, Content: ln.Content, SchemaRef: ln.SchemaRef})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			terminal(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("line %d: document line exceeds the per-document cap of %d bytes", lineNo+1, e.maxDocBytes))
		} else {
			// Most commonly a client disconnect mid-stream.
			terminal(http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		}
	}
	close(queue)
	wg.Wait()
	e.busyNanos.Add(time.Since(start).Nanoseconds())
}

// serveCheckRaw implements POST /check/raw: the body is one raw XML
// document (no JSON envelope), checked in bounded memory with no size cap —
// the route for documents past MaxDocumentBytes. The schema is selected by
// reference only (X-Schema-Ref header or ?schemaRef=, against a schema
// previously compiled via /schemas or a stream header): 400 without a ref,
// 404 when it resolves to nothing. gzip Content-Encoding is honored (415
// otherwise, like the stream routes) and the check sees inflated bytes.
// The verdict carries the full-validity bit, as on every check route.
func serveCheckRaw(e *Engine, w http.ResponseWriter, r *http.Request) {
	ref := r.Header.Get("X-Schema-Ref")
	if ref == "" {
		ref = r.URL.Query().Get("schemaRef")
	}
	if ref == "" {
		httpError(w, http.StatusBadRequest, "missing schema reference (X-Schema-Ref header or ?schemaRef=)")
		return
	}
	s, err := e.store.ResolveRef(ref)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	body, closeBody := streamBody(w, r)
	if body == nil {
		return
	}
	defer closeBody()
	// An unbounded body can legitimately take longer than the server's
	// ReadTimeout; lift it for this request like the stream routes do.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	res := e.CheckReader(s, r.URL.Query().Get("id"), body)
	writeResult(w, &res)
}
