package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/jobs/jobstore"
	"repro/internal/jobs/walstore"
	"repro/internal/receipt"
	"repro/internal/xmltext"
)

// The traced replay feeds a workload's request bodies, in-process and on
// one goroutine, through the public calls pvserve's pipeline makes for the
// route, in the same order, recording a span around each call. Spans live
// in memory and are written out when the replay ends.

// span is one timed call. Parent is the index of the enclosing span, -1
// for a root; Req ties the spans of one replayed request together (-1 for
// the input-layer probes, which sit beside the requests).
type span struct {
	Req    int32  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer records spans and counts; when off, every call is a no-op so the
// untraced replay runs the same code.
type tracer struct {
	on     bool
	epoch  time.Time
	req    int32
	spans  []span
	open   []int32
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]int64{}} }

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

func (t *tracer) count(name string, n int64) {
	if t.on {
		t.counts[name] += n
	}
}

// replayer holds the in-process engine and per-schema pooled state.
type replayer struct {
	t          *tracer
	e          *engine.Engine
	w          *workload
	checkers   map[*engine.Schema]*core.StreamChecker
	completers map[*engine.Schema]*complete.Completer
	buf        []byte
	// jobs_durable: a WAL and an anchor log in a scratch directory.
	wal     *walstore.Store
	anchors *receipt.AnchorLog
	jobSeq  int
}

func (r *replayer) checker(s *engine.Schema) *core.StreamChecker {
	c, ok := r.checkers[s]
	if !ok {
		c = s.Core.NewStreamChecker()
		r.checkers[s] = c
	}
	return c
}

func (r *replayer) completer(s *engine.Schema) *complete.Completer {
	c, ok := r.completers[s]
	if !ok {
		c = complete.New(s.Core)
		r.completers[s] = c
	}
	return c
}

// Request shapes as pvserve decodes them (unknown fields rejected).
type streamLine struct {
	Schema    string                `json:"schema,omitempty"`
	Kind      string                `json:"kind,omitempty"`
	Root      string                `json:"root,omitempty"`
	Options   engine.CompileOptions `json:"options,omitempty"`
	ID        string                `json:"id,omitempty"`
	Content   string                `json:"content,omitempty"`
	SchemaRef string                `json:"schemaRef,omitempty"`
}

type batchRequest struct {
	Schema    string                `json:"schema"`
	Kind      string                `json:"kind,omitempty"`
	Root      string                `json:"root"`
	Options   engine.CompileOptions `json:"options,omitempty"`
	Documents []engine.Doc          `json:"documents"`
	Diff      *bool                 `json:"diff,omitempty"`
}

// jobPayload mirrors the engine's write-ahead payload of a check job.
type jobPayload struct {
	Op         string       `json:"op"`
	Schema     string       `json:"schema,omitempty"`
	HasDefault bool         `json:"hasDefault,omitempty"`
	Receipt    bool         `json:"receipt,omitempty"`
	Docs       []payloadDoc `json:"docs"`
}

type payloadDoc struct {
	ID      string `json:"id,omitempty"`
	Content string `json:"c,omitempty"`
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeReply renders a reply the way pvserve's JSON routes do (indented).
func encodeReply(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// replay runs one request through its route's layers and checks the
// verdicts it reaches against the oracle.
func (r *replayer) replay(q *request) error {
	r.t.begin("engine.request")
	defer r.t.end()
	switch r.w.name {
	case "check_stream":
		return r.stream(q)
	case "complete_batch":
		return r.complete(q)
	case "jobs_durable":
		return r.job(q)
	case "raw_large":
		return r.raw(q)
	}
	return fmt.Errorf("unknown workload %q", r.w.name)
}

// check is the engine's verdict path for one string document: the
// streaming check, then the tree pass unless the stream proved strict
// validity.
func (r *replayer) check(s *engine.Schema, id, content string) resultJSON {
	t := r.t
	c := r.checker(s)
	t.begin("core.check")
	err := c.Run(content)
	t.end()
	_, fallbacks := c.FastPathStats()
	t.count("core.docs", 1)
	t.count("core.fallbacks", fallbacks)
	res := resultJSON{ID: id}
	if err != nil {
		if core.IsViolation(err) {
			res.Detail = err.Error()
		} else {
			res.Error = err.Error()
		}
		return res
	}
	res.PotentiallyValid = true
	if c.StrictlyValid() {
		t.count("core.strict", 1)
		res.Valid = true
		return res
	}
	t.count("dom.tree_passes", 1)
	t.begin("dom.parse")
	d, err := dom.Parse(content)
	t.end()
	if err != nil {
		res.PotentiallyValid = false
		res.Error = err.Error()
		return res
	}
	t.begin("validator.validate")
	res.Valid = s.Valid.Validate(d.Root) == nil
	t.end()
	return res
}

func (r *replayer) resolve(kind, src, root string, opts engine.CompileOptions) (*engine.Schema, error) {
	r.t.begin("registry.resolve")
	defer r.t.end()
	k, err := engine.ParseSourceKind(kind)
	if err != nil {
		return nil, err
	}
	return r.e.Compile(k, src, root, opts)
}

func (r *replayer) stream(q *request) error {
	t := r.t
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	var cur *engine.Schema
	n := 0
	for _, raw := range splitLines(q.body) {
		var ln streamLine
		t.begin("engine.decode")
		err := decodeStrict(raw, &ln)
		t.end()
		if err != nil {
			return err
		}
		if ln.Schema != "" || ln.Root != "" {
			if cur, err = r.resolve(ln.Kind, ln.Schema, ln.Root, ln.Options); err != nil {
				return err
			}
			continue
		}
		res := r.check(cur, ln.ID, ln.Content)
		res.Index = n
		t.begin("engine.encode")
		err = enc.Encode(res)
		t.end()
		if err != nil {
			return err
		}
		if err := checkResult(&res, n, &q.docs[n]); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		n++
	}
	t.begin("engine.encode")
	err := enc.Encode(map[string]engine.BatchStats{"stats": {Docs: n}})
	t.end()
	return err
}

func (r *replayer) complete(q *request) error {
	t := r.t
	var req batchRequest
	t.begin("engine.decode")
	err := decodeStrict(q.body, &req)
	t.end()
	if err != nil {
		return err
	}
	s, err := r.resolve(req.Kind, req.Schema, req.Root, req.Options)
	if err != nil {
		return err
	}
	c := r.completer(s)
	resp := completeResponse{Results: make([]completeJSON, len(req.Documents))}
	for i, d := range req.Documents {
		res := &resp.Results[i]
		res.ID, res.Index = d.ID, i
		t.count("complete.docs", 1)
		t.begin("dom.parse")
		doc, err := dom.Parse(d.Content)
		t.end()
		if err != nil {
			return err
		}
		t.begin("validator.validate")
		valid := s.Valid.Validate(doc.Root) == nil
		t.end()
		res.Completed = true
		if valid {
			res.AlreadyValid = true
			res.Output = r.serialize(doc)
		} else {
			t.begin("complete.dp")
			out, nodes, err := c.CompleteTracked(doc.Root)
			t.end()
			if err != nil {
				return err
			}
			doc.Root = out
			res.Inserted = len(nodes)
			res.Output = r.serialize(doc)
			t.begin("diff.compute")
			res.Insertions = diff.ComputeDoc(out, nodes, res.Output).Insertions
			t.end()
			t.count("complete.inserted", int64(len(nodes)))
		}
		if want := q.comps[i]; sha256.Sum256([]byte(res.Output)) != want.digest || res.Inserted != want.inserted {
			return fmt.Errorf("replay: document %s completes differently from the oracle", d.ID)
		}
	}
	t.begin("engine.encode")
	_, err = encodeReply(resp)
	t.end()
	return err
}

func (r *replayer) serialize(doc *dom.Document) string {
	r.t.begin("dom.serialize")
	defer r.t.end()
	r.buf = doc.AppendXML(r.buf[:0])
	return string(r.buf)
}

// walAppend records one job-lifecycle event, as the job manager does.
func (r *replayer) walAppend(ev *jobstore.Event) error {
	r.t.begin("walstore.append")
	defer r.t.end()
	r.t.count("walstore.appends", 1)
	ev.Time = time.Now()
	return r.wal.Append(ev)
}

func (r *replayer) job(q *request) error {
	t := r.t
	var req batchRequest
	t.begin("engine.decode")
	err := decodeStrict(q.body, &req)
	t.end()
	if err != nil {
		return err
	}
	s, err := r.resolve(req.Kind, req.Schema, req.Root, req.Options)
	if err != nil {
		return err
	}
	r.jobSeq++
	id := fmt.Sprintf("replay-%d", r.jobSeq)
	n := len(req.Documents)
	p := jobPayload{Op: "check", Schema: s.Ref, HasDefault: true, Receipt: true, Docs: make([]payloadDoc, n)}
	for i, d := range req.Documents {
		p.Docs[i] = payloadDoc{ID: d.ID, Content: d.Content}
	}
	t.begin("engine.encode")
	payload, err := json.Marshal(p)
	t.end()
	if err != nil {
		return err
	}
	if err := r.walAppend(&jobstore.Event{Type: jobstore.Submitted, Job: id, Kind: "check", Total: n, Chunk: jobs.DefaultChunk, Payload: payload}); err != nil {
		return err
	}
	if err := r.walAppend(&jobstore.Event{Type: jobstore.Started, Job: id}); err != nil {
		return err
	}
	leaves := make([]receipt.Leaf, n)
	var resultBytes int64
	for lo := 0; lo < n; lo += jobs.DefaultChunk {
		hi := min(lo+jobs.DefaultChunk, n)
		for i := lo; i < hi; i++ {
			d := &req.Documents[i]
			res := r.check(s, d.ID, d.Content)
			res.Index = i
			if err := checkResult(&res, i, &q.docs[i]); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			t.begin("engine.encode")
			line, err := json.Marshal(res)
			t.end()
			if err != nil {
				return err
			}
			resultBytes += int64(len(line)) + 1
			t.begin("receipt.build")
			leaves[i] = receipt.Leaf{DocID: d.ID, SchemaRef: s.Ref, Verdict: verdict{res.PotentiallyValid, res.Valid}.wireVerdict(),
				ContentDigest: receipt.DigestContent([]byte(d.Content))}
			t.end()
		}
		if err := r.walAppend(&jobstore.Event{Type: jobstore.Progress, Job: id, Done: hi, ResultBytes: resultBytes}); err != nil {
			return err
		}
	}
	t.begin("receipt.build")
	rec, err := buildReceipt(leaves)
	t.end()
	if err != nil {
		return err
	}
	if rec.Root != q.root {
		return fmt.Errorf("replay: receipt root %s, want %s", rec.Root, q.root)
	}
	t.begin("receipt.anchor_append")
	_, err = r.anchors.Append(receipt.Anchor{Kind: "check", Batch: id, Leaves: n, Root: rec.Root})
	t.end()
	if err != nil {
		return err
	}
	t.count("receipt.anchors", 1)
	t.begin("engine.encode")
	_, err = json.Marshal(rec)
	t.end()
	if err != nil {
		return err
	}
	if err := r.walAppend(&jobstore.Event{Type: jobstore.Finished, Job: id, State: "done", Done: n, ResultBytes: resultBytes, Root: rec.Root}); err != nil {
		return err
	}
	return r.walAppend(&jobstore.Event{Type: jobstore.Removed, Job: id})
}

// buildReceipt commits leaves to a Merkle root with one proof each.
func buildReceipt(leaves []receipt.Leaf) (*engine.Receipt, error) {
	tree, err := receipt.Build(leaves)
	if err != nil {
		return nil, err
	}
	rec := &engine.Receipt{Root: tree.RootRecord(), Count: len(leaves), Kind: "check", Proofs: make([]engine.DocProof, len(leaves))}
	for i := range leaves {
		p, err := tree.Prove(i)
		if err != nil {
			return nil, err
		}
		rec.Proofs[i] = engine.DocProof{Index: i, Leaf: leaves[i], Proof: p}
	}
	return rec, nil
}

func (r *replayer) raw(q *request) error {
	t := r.t
	d := &q.docs[0]
	t.begin("registry.resolve")
	s, err := r.e.Store().ResolveRef(q.schema.ref)
	t.end()
	if err != nil {
		return err
	}
	c := r.checker(s)
	t.begin("core.reader")
	err = c.RunReaderBuffer(bytes.NewReader(q.body), 0)
	t.end()
	if err != nil && !core.IsViolation(err) {
		return err
	}
	res := resultJSON{ID: d.id, PotentiallyValid: err == nil}
	if res.PotentiallyValid != d.want.pv {
		return fmt.Errorf("replay: document %s: got pv=%v, want %v", d.id, res.PotentiallyValid, d.want.pv)
	}
	t.begin("engine.encode")
	_, err = encodeReply(res)
	t.end()
	return err
}

// probeDoc is one document for the input-layer probes.
type probeDoc struct {
	text   string
	raw    []byte
	schema *schemaDef
}

// probeDocs returns every document of the replayed requests for the
// probes; a raw_large document is its whole request body.
func probeDocs(reqs []*request) []probeDoc {
	var out []probeDoc
	for _, q := range reqs {
		for _, d := range q.docs {
			if d.content == "" {
				out = append(out, probeDoc{string(q.body), q.body, q.schema})
				continue
			}
			out = append(out, probeDoc{d.content, []byte(d.content), q.schema})
		}
	}
	return out
}

// probeReaders runs the input layers alone over every document of the
// workload, as root spans beside the requests (request id -1): the string
// lexer the HTTP check path uses, and the sliding-window lexer and the
// reader-path checker of /check/raw, both with the default window.
func (r *replayer) probeReaders(docs []probeDoc) error {
	t := r.t
	req := t.req
	t.req = -1
	defer func() { t.req = req }()
	for _, d := range docs {
		t.begin("xmltext.lex")
		lx := xmltext.NewLexer(d.text)
		var err error
		for tok := (*xmltext.Token)(nil); err == nil; {
			if tok, err = lx.Next(); tok == nil {
				break
			}
		}
		t.end()
		if err != nil {
			return err
		}
	}
	var cl *xmltext.ChunkedLexer
	for _, d := range docs {
		rd := bytes.NewReader(d.raw)
		t.begin("xmltext.chunked_lex")
		if cl == nil {
			cl = xmltext.NewChunkedLexer(rd, 0)
		} else {
			cl.Reset(rd)
		}
		var err error
		for tok := (*xmltext.ByteToken)(nil); err == nil; {
			if tok, err = cl.Next(); tok == nil {
				break
			}
		}
		t.end()
		if err != nil {
			return err
		}
	}
	for _, d := range docs {
		s, err := r.e.Compile(engine.DTDSource, d.schema.src, d.schema.root, engine.CompileOptions{})
		if err != nil {
			return err
		}
		c := r.checker(s)
		t.begin("core.reader")
		err = c.RunReaderBuffer(bytes.NewReader(d.raw), 0)
		t.end()
		if err != nil && !core.IsViolation(err) {
			return err
		}
	}
	for _, d := range docs {
		t.count("probe.bytes", int64(len(d.raw)))
	}
	return nil
}

// cpuNow is this process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replayPasses is how many untraced and how many traced passes over the
// replayed bodies the replay alternates; replayDocs bounds the documents
// in one pass.
const (
	replayPasses = 2
	replayDocs   = 3072
)

// layerReport is the outcome of the traced replay.
type layerReport struct {
	self      map[string]float64 // steal-corrected self time per span name, µs
	calls     map[string]int64
	counts    map[string]int64
	docs      int     // documents replayed traced
	totalUS   float64 // traced request time per document, steal-corrected
	cpuUS     float64 // untraced replay CPU per document, fastest pass
	overhead  float64 // fastest traced over fastest untraced pass, minus one
	spansPath string
}

// traceReplay replays the workload's request bodies untraced and traced,
// probes the input layers, writes the spans file and sums self times per
// span name.
func traceReplay(w *workload, scratch, spansPath string) (*layerReport, error) {
	e := engine.New(engine.Config{})
	defer e.Close()
	t := newTracer()
	r := &replayer{t: t, e: e, w: w, checkers: map[*engine.Schema]*core.StreamChecker{}, completers: map[*engine.Schema]*complete.Completer{}}
	if w.durable {
		var err error
		if r.wal, err = walstore.Open(filepath.Join(scratch, "replay-wal"), walstore.Options{}); err != nil {
			return nil, err
		}
		defer r.wal.Close()
		if r.anchors, err = receipt.OpenAnchorLog(filepath.Join(scratch, "replay-receipts")); err != nil {
			return nil, err
		}
		defer r.anchors.Close()
	}
	// Compile the schemas and warm checkers, completers and caches, as
	// pvserve's set-up and warm-up did before its measured phase.
	for _, s := range w.schemas {
		if _, err := e.Compile(engine.DTDSource, s.src, s.root, engine.CompileOptions{}); err != nil {
			return nil, err
		}
	}
	for _, q := range w.reqs[:min(8, len(w.reqs))] {
		if err := r.replay(q); err != nil {
			return nil, err
		}
	}
	// The replay covers the first bodies up to replayDocs documents: enough
	// for stable per-document means, short enough for a run's time limit.
	reqs, docs := w.reqs, 0
	for i, q := range w.reqs {
		if docs += len(q.docs); docs >= replayDocs {
			reqs = w.reqs[:i+1]
			break
		}
	}
	// pass replays every request once and returns the CPU time it took.
	pass := func() (time.Duration, error) {
		runtime.GC()
		cpu0 := cpuNow()
		for _, q := range reqs {
			t.req++
			if err := r.replay(q); err != nil {
				return 0, err
			}
		}
		return cpuNow() - cpu0, nil
	}
	// Untraced and traced passes alternate; the faster of each kind is the
	// least disturbed by other tenants and sets the CPU cost and the
	// tracing overhead.
	rep := &layerReport{self: map[string]float64{}, calls: map[string]int64{}, docs: replayPasses * docs, spansPath: spansPath}
	plain, traced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	probes := probeDocs(reqs)
	for i := 0; i < replayPasses; i++ {
		cpu, err := pass()
		if err != nil {
			return nil, err
		}
		plain = min(plain, cpu)
		t.on = true
		first, c0 := len(t.spans), mustCPU()
		if cpu, err = pass(); err != nil {
			return nil, err
		}
		traced = min(traced, cpu)
		if err := r.probeReaders(probes); err != nil {
			return nil, err
		}
		t.on = false
		addSelf(rep, t.spans, first, 1-busyStealFrac(c0, mustCPU()))
	}
	rep.counts = t.counts
	for name, us := range rep.self {
		if !strings.HasPrefix(name, probePrefix) {
			rep.totalUS += us
		}
	}
	rep.totalUS /= float64(rep.docs)
	rep.cpuUS = plain.Seconds() * 1e6 / float64(docs)
	rep.overhead = traced.Seconds()/plain.Seconds() - 1
	return rep, writeSpans(spansPath, t)
}

func mustCPU() cpuSample {
	c, err := readCPU()
	if err != nil {
		panic(err) // /proc/stat was readable when the run started
	}
	return c
}

// probePrefix marks the self time of probe spans in a layerReport, which
// are kept out of the replay total.
const probePrefix = "probe:"

// addSelf folds the self times (duration minus the children's) of
// spans[first:], scaled by a steal factor, into the report.
func addSelf(rep *layerReport, spans []span, first int, factor float64) {
	child := make([]int64, len(spans))
	for _, s := range spans[first:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := first; i < len(spans); i++ {
		s := spans[i]
		name := s.Name
		if s.Req < 0 {
			name = probePrefix + name
		}
		rep.self[name] += float64(s.End-s.Start-child[i]) / 1e3 * factor
		rep.calls[name]++
	}
}

// writeSpans writes one JSON span per line, then the counts.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the per-layer summary table: self µs per document and
// share of the traced replay total, largest first.
func printLayers(out io.Writer, rep *layerReport) {
	n := float64(rep.docs)
	names := make([]string, 0, len(rep.self))
	for name := range rep.self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rep.self[names[i]] > rep.self[names[j]] })
	fmt.Fprintf(out, "trace: %-28s %12s %8s %10s\n", "span", "self_us/doc", "share", "calls")
	for _, name := range names {
		share := "-"
		if !strings.HasPrefix(name, probePrefix) {
			share = fmt.Sprintf("%.1f%%", 100*rep.self[name]/n/rep.totalUS)
		}
		fmt.Fprintf(out, "trace: %-28s %12.3f %8s %10d\n", name, rep.self[name]/n, share, rep.calls[name])
	}
	fmt.Fprintf(out, "trace: replay total %.3f us/doc traced, %.3f us/doc CPU untraced, overhead %.2f%%, spans in %s\n",
		rep.totalUS, rep.cpuUS, 100*rep.overhead, rep.spansPath)
}
