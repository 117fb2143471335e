package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/receipt"
	"repro/internal/validator"
)

// Workload shapes. The reasons for each choice are in README.md.
const (
	streamBodies   = 48 // check_stream: 16 per schema, 64 documents each
	streamDocs     = 64
	completeBodies = 1024 // complete_batch: 512 per schema, 16 documents each
	completeDocs   = 16
	jobBodies      = 24 // jobs_durable: 8 per schema, 128 documents each
	jobDocs        = 128
	rawBodies      = 6 // raw_large: one ~2 MB document each
	rawBytes       = 2 << 20
)

// workloadNames lists every workload servebench can run; BENCHMARK.json
// names the ones whose figures are steady (see README.md).
var workloadNames = []string{"check_stream", "complete_batch", "jobs_durable", "raw_large"}

// schemaDef is one workload schema: its inline source, its root, and the
// registry reference pvserve derives from them (a pure function of the
// source, root and compile options).
type schemaDef struct {
	name, src, root string
	dtd             *dtd.DTD
	ref             string
	// minBytes and maxBytes bound the serialized size of a generated
	// document (before stripping or corruption). The band cuts the long
	// tail of the generator's size distribution, so the cost of a corpus
	// depends little on the seed that drew it.
	minBytes, maxBytes int
	// oracle is the reference checker: the paper's recognizer with the DFA
	// fast path off, so the expected verdicts come from a different code
	// path than the one pvserve answers with.
	oracle *core.Schema
	valid  *validator.Validator
}

func newSchema(name, src, root string, minBytes, maxBytes int) (*schemaDef, error) {
	d, err := dtd.Parse(src)
	if err != nil {
		return nil, err
	}
	oracle, err := core.Compile(d, root, core.Options{DisableFastPath: true})
	if err != nil {
		return nil, err
	}
	v, err := validator.New(d, root)
	if err != nil {
		return nil, err
	}
	s, err := engine.NewRegistry(0).Compile(engine.DTDSource, src, root, engine.CompileOptions{})
	if err != nil {
		return nil, err
	}
	return &schemaDef{name: name, src: src, root: root, dtd: d, ref: s.Ref, minBytes: minBytes, maxBytes: maxBytes, oracle: oracle, valid: v}, nil
}

// verdict is the expected answer for one checked document.
type verdict struct{ pv, valid bool }

// wireVerdict is the verdict string a receipt leaf commits for v.
func (v verdict) wireVerdict() string {
	switch {
	case v.valid:
		return engine.VerdictValid
	case v.pv:
		return engine.VerdictPotentiallyValid
	}
	return engine.VerdictNotPotentiallyValid
}

// doc is one generated document with its expected verdict.
type doc struct {
	id      string
	content string
	want    verdict
}

// completion is the expected answer for one completed document.
type completion struct {
	alreadyValid bool
	inserted     int
	digest       [sha256.Size]byte // SHA-256 of the completed output
}

// request is one pre-encoded request body and everything needed to check
// its reply.
type request struct {
	body   []byte
	schema *schemaDef
	docs   []doc        // check_stream, jobs_durable, raw_large (content empty: it is body)
	comps  []completion // complete_batch, parallel to docs
	root   string       // jobs_durable: the expected receipt root
	leaves []receipt.Leaf
	bytes  int // document bytes carried (for MB/s)
}

// workload is one generated traffic mix.
type workload struct {
	name    string
	schemas []*schemaDef
	reqs    []*request
	durable bool // pvserve runs with a cache directory (WAL, disk tier)
}

// docs counts the documents across every request body.
func (w *workload) docs() int {
	n := 0
	for _, r := range w.reqs {
		n += len(r.docs)
	}
	return n
}

// Wire shapes of the request bodies, as documented in docs/http-api.md.
type wireDoc struct {
	ID      string `json:"id"`
	Content string `json:"content"`
}

type wireSchema struct {
	Schema string `json:"schema"`
	Root   string `json:"root"`
}

type wireBatch struct {
	Schema    string    `json:"schema"`
	Root      string    `json:"root"`
	Documents []wireDoc `json:"documents"`
	Diff      *bool     `json:"diff,omitempty"`
}

// encodeLine appends v as one JSON line without HTML escaping, the way
// non-Go clients send it.
func encodeLine(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// buildWorkload generates the named workload's inputs from seed and
// computes every expected answer with the library.
func buildWorkload(name string, seed int64) (*workload, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	// Size bands around each generator's median document size.
	play, err := newSchema("play", dtd.Play, "play", 600, 1300)
	if err != nil {
		return nil, err
	}
	article, err := newSchema("article", dtd.Article, "article", 2500, 4800)
	if err != nil {
		return nil, err
	}
	tei, err := newSchema("tei", dtd.TEILite, "TEI", 2000, 4000)
	if err != nil {
		return nil, err
	}
	switch name {
	case "check_stream":
		return buildStream(rng, []*schemaDef{play, article, tei})
	case "complete_batch":
		return buildComplete(rng, []*schemaDef{play, article})
	case "jobs_durable":
		return buildJobs(rng, []*schemaDef{play, article, tei})
	case "raw_large":
		return buildRaw(rng, play)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var docOpts = gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}

// genValid draws valid documents until one falls in the schema's size band.
func (s *schemaDef) genValid(rng *rand.Rand) *dom.Node {
	for {
		root := gen.GenValid(rng, s.dtd, s.root, docOpts)
		if n := len(root.String()); n >= s.minBytes && n <= s.maxBytes {
			return root
		}
	}
}

// mixedDoc generates document i of the check mix: 1/2 valid, 1/3
// tag-stripped (30% of tags removed) and 1/6 corrupted, labelled by the
// oracle.
func mixedDoc(rng *rand.Rand, s *schemaDef, id string, i int) doc {
	root := s.genValid(rng)
	switch i % 6 {
	case 3, 4:
		gen.Strip(rng, root, 0.3)
	case 5:
		gen.Corrupt(rng, s.dtd, root)
	}
	content := root.String()
	return doc{id: id, content: content, want: s.expect(content)}
}

// expect computes a document's verdict with the reference checker and the
// DOM validator.
func (s *schemaDef) expect(content string) verdict {
	if s.oracle.NewStreamChecker().Run(content) != nil {
		return verdict{}
	}
	d, err := dom.Parse(content)
	if err != nil {
		return verdict{}
	}
	return verdict{pv: true, valid: s.valid.Validate(d.Root) == nil}
}

func buildStream(rng *rand.Rand, schemas []*schemaDef) (*workload, error) {
	w := &workload{name: "check_stream", schemas: schemas}
	for b := 0; b < streamBodies; b++ {
		s := schemas[b%len(schemas)]
		r := &request{schema: s}
		var buf bytes.Buffer
		if err := encodeLine(&buf, wireSchema{Schema: s.src, Root: s.root}); err != nil {
			return nil, err
		}
		for i := 0; i < streamDocs; i++ {
			d := mixedDoc(rng, s, fmt.Sprintf("s%d-%d", b, i), i)
			if err := encodeLine(&buf, wireDoc{ID: d.id, Content: d.content}); err != nil {
				return nil, err
			}
			r.docs = append(r.docs, d)
			r.bytes += len(d.content)
		}
		r.body = buf.Bytes()
		w.reqs = append(w.reqs, r)
	}
	return w, nil
}

func buildComplete(rng *rand.Rand, schemas []*schemaDef) (*workload, error) {
	w := &workload{name: "complete_batch", schemas: schemas}
	for b := 0; b < completeBodies; b++ {
		s := schemas[b%len(schemas)]
		r := &request{schema: s, comps: make([]completion, completeDocs)}
		for i := 0; i < completeDocs; i++ {
			root := s.genValid(rng)
			if i%4 != 0 {
				gen.Strip(rng, root, 0.3)
			}
			d := doc{id: fmt.Sprintf("c%d-%d", b, i), content: root.String()}
			r.docs = append(r.docs, d)
			r.bytes += len(d.content)
		}
		w.reqs = append(w.reqs, r)
	}
	// Completing the corpus is the slow part of set-up; split it over the
	// CPUs, one completer per schema per worker.
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := map[*schemaDef]*complete.Completer{}
			for {
				b := int(next.Add(1) - 1)
				if b >= len(w.reqs) || errs[k] != nil {
					return
				}
				r := w.reqs[b]
				c, ok := cs[r.schema]
				if !ok {
					c = complete.New(r.schema.oracle)
					cs[r.schema] = c
				}
				for i, d := range r.docs {
					want, err := r.schema.expectCompletion(c, d.content)
					if err != nil {
						errs[k] = fmt.Errorf("completing %s: %w", d.id, err)
						return
					}
					r.comps[i] = want
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	on := true
	for _, r := range w.reqs {
		body := wireBatch{Schema: r.schema.src, Root: r.schema.root, Diff: &on}
		for _, d := range r.docs {
			body.Documents = append(body.Documents, wireDoc{ID: d.id, Content: d.content})
		}
		var buf bytes.Buffer
		if err := encodeLine(&buf, body); err != nil {
			return nil, err
		}
		r.body = buf.Bytes()
	}
	return w, nil
}

// expectCompletion computes the completion of content with the library:
// an already-valid document serializes as parsed; any other is completed
// and serialized at document level.
func (s *schemaDef) expectCompletion(c *complete.Completer, content string) (completion, error) {
	d, err := dom.Parse(content)
	if err != nil {
		return completion{}, err
	}
	if s.valid.Validate(d.Root) == nil {
		return completion{alreadyValid: true, digest: sha256.Sum256(d.AppendXML(nil))}, nil
	}
	out, nodes, err := c.CompleteTracked(d.Root)
	if err != nil {
		return completion{}, err
	}
	d.Root = out
	serialized := d.AppendXML(nil)
	if n := len(diff.ComputeDoc(out, nodes, string(serialized)).Insertions); n != len(nodes) {
		return completion{}, fmt.Errorf("diff lists %d insertions for %d inserted nodes", n, len(nodes))
	}
	return completion{inserted: len(nodes), digest: sha256.Sum256(serialized)}, nil
}

func buildJobs(rng *rand.Rand, schemas []*schemaDef) (*workload, error) {
	w := &workload{name: "jobs_durable", schemas: schemas, durable: true}
	for b := 0; b < jobBodies; b++ {
		s := schemas[b%len(schemas)]
		r := &request{schema: s}
		body := wireBatch{Schema: s.src, Root: s.root}
		for i := 0; i < jobDocs; i++ {
			d := mixedDoc(rng, s, fmt.Sprintf("j%d-%d", b, i), i)
			r.docs = append(r.docs, d)
			r.bytes += len(d.content)
			body.Documents = append(body.Documents, wireDoc{ID: d.id, Content: d.content})
			r.leaves = append(r.leaves, receipt.Leaf{
				DocID:         d.id,
				SchemaRef:     s.ref,
				Verdict:       d.want.wireVerdict(),
				ContentDigest: receipt.DigestContent([]byte(d.content)),
			})
		}
		tree, err := receipt.Build(r.leaves)
		if err != nil {
			return nil, err
		}
		r.root = tree.RootRecord()
		var buf bytes.Buffer
		if err := encodeLine(&buf, body); err != nil {
			return nil, err
		}
		r.body = buf.Bytes()
		w.reqs = append(w.reqs, r)
	}
	return w, nil
}

func buildRaw(rng *rand.Rand, s *schemaDef) (*workload, error) {
	w := &workload{name: "raw_large", schemas: []*schemaDef{s}}
	for b := 0; b < rawBodies; b++ {
		var buf bytes.Buffer
		n, err := gen.StreamValid(&buf, rng, s.dtd, s.root, docOpts, rawBytes)
		if err != nil {
			return nil, err
		}
		if n < rawBytes {
			return nil, fmt.Errorf("raw document %d is %d bytes, want at least %d", b, n, rawBytes)
		}
		want := s.expect(buf.String())
		w.reqs = append(w.reqs, &request{
			body:   buf.Bytes(),
			schema: s,
			docs:   []doc{{id: fmt.Sprintf("r%d", b), want: want}},
			bytes:  buf.Len(),
		})
	}
	return w, nil
}
