package pv

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/gen"
)

// TestEngineCompileCache exercises the public registry path: the second
// compile of the same (source, root, options) must be a cache hit, and
// different options must compile separately.
func TestEngineCompileCache(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2})
	s1, err := e.CompileDTD(Figure1DTD, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.CompileDTD(Figure1DTD, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Compiles != 1 {
		t.Errorf("cache stats after two identical compiles: %+v", st)
	}
	if _, err := e.CompileDTD(Figure1DTD, "r", Options{AllowAnyRoot: true}); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Compiles != 2 {
		t.Errorf("distinct options should compile separately: %+v", st)
	}
	// Both wrappers share the compiled artifact and behave identically.
	r1, _ := s1.CheckString(exampleS)
	r2, _ := s2.CheckString(exampleS)
	if r1 != r2 || !r1.PotentiallyValid {
		t.Errorf("cached schema verdicts differ: %+v vs %+v", r1, r2)
	}
}

// TestEngineBatchMatchesTreeOracle is the public-API half of the
// differential acceptance criterion: CheckBatch with 8 workers against the
// sequential tree oracle (treeVerdict) over a generated corpus (all three
// DTD recursion classes; valid, tag-stripped, corrupted and truncated
// documents). CI runs it under -race.
func TestEngineBatchMatchesTreeOracle(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 8})
	total := 0
	for ci, class := range []gen.DTDClass{gen.ClassNonRecursive, gen.ClassWeak, gen.ClassStrong} {
		rng := rand.New(rand.NewSource(int64(77 + ci)))
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: 9, Class: class})
		schema, err := e.CompileDTD(d.String(), "e0", Options{})
		if err != nil {
			t.Fatalf("class %d: %v", class, err)
		}
		var docs []Doc
		for i := 0; i < 70; i++ {
			doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 7})
			switch i % 4 {
			case 1:
				gen.Strip(rng, doc, 0.5)
			case 2:
				gen.Corrupt(rng, d, doc)
			case 3:
				src := doc.String()
				docs = append(docs, Doc{ID: fmt.Sprintf("c%d-%03d", ci, i), Content: src[:rng.Intn(len(src))]})
				continue
			}
			docs = append(docs, Doc{ID: fmt.Sprintf("c%d-%03d", ci, i), Content: doc.String()})
		}
		total += len(docs)

		results, stats := e.CheckBatch(schema, docs)
		if stats.Docs != len(docs) {
			t.Fatalf("stats: %+v", stats)
		}
		for i, r := range results {
			seq, err := treeVerdict(schema, docs[i].Content)
			got := fmt.Sprintf("pv=%t valid=%t malformed=%t", r.PotentiallyValid, r.Valid, r.Err != nil)
			want := fmt.Sprintf("pv=%t valid=%t malformed=%t", seq.PotentiallyValid, seq.Valid, err != nil)
			if got != want {
				t.Errorf("%s: batch %s, sequential %s\ndoc: %.200q", r.ID, got, want, docs[i].Content)
			}
		}
	}
	if total < 200 {
		t.Fatalf("corpus too small: %d documents", total)
	}
}

// TestSchemaChecksShareEnginePool runs a schema's checks and completions
// from 8 goroutines while the engine's batch workers draw checkers and
// completers from the same pools. Every answer must equal the sequential
// one. CI repeats it under -race.
func TestSchemaChecksShareEnginePool(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4})
	schema, err := e.CompileDTD(Figure1DTD, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := dtd.MustParse(Figure1DTD)
	rng := rand.New(rand.NewSource(29))
	type answer struct {
		check    Result
		checkErr bool
		out      string
		inserted int
		failed   bool
	}
	var docs []Doc
	var want []answer
	kinds := map[[2]bool]int{}
	for i := 0; i < 24; i++ {
		root := gen.GenValid(rng, d, "r", gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
		switch i % 3 {
		case 1:
			gen.Strip(rng, root, 0.5)
		case 2:
			gen.Corrupt(rng, d, root)
		}
		xml := root.String()
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: xml})
		var a answer
		var cerr error
		a.check, cerr = schema.CheckString(xml)
		a.checkErr = cerr != nil
		out, diff, err := schema.CompleteBytes([]byte(xml))
		if a.failed = err != nil; !a.failed {
			a.out, a.inserted = string(out), diff.Inserted
		}
		want = append(want, a)
		kinds[[2]bool{a.check.PotentiallyValid, a.check.Valid}]++
	}
	if len(kinds) != 3 {
		t.Fatalf("corpus needs valid, invalid PV and not-PV documents; (pv, valid) counts %v", kinds)
	}
	compare := func(who string, i int, got answer) {
		if got != want[i] {
			t.Errorf("%s doc %d: %+v, sequential %+v", who, i, got, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, doc := range docs {
					var a answer
					var cerr error
					a.check, cerr = schema.CheckString(doc.Content)
					a.checkErr = cerr != nil
					if !a.checkErr {
						if r := schema.CheckDocument(MustParseDocument(doc.Content)); r != a.check {
							t.Errorf("goroutine %d doc %d: CheckDocument %+v, CheckString %+v", g, i, r, a.check)
						}
					}
					out, diff, err := schema.CompleteBytes([]byte(doc.Content))
					if a.failed = err != nil; !a.failed {
						a.out, a.inserted = string(out), diff.Inserted
					}
					compare(fmt.Sprintf("goroutine %d", g), i, a)
				}
			}
		}(g)
	}
	for round := 0; round < 4; round++ {
		checks, _ := e.CheckBatch(schema, docs)
		completions, _ := e.CompleteBatch(schema, docs, true)
		for i := range docs {
			c, k := checks[i], completions[i]
			a := answer{
				check:    Result{PotentiallyValid: c.PotentiallyValid, Valid: c.Valid, Detail: c.Detail},
				checkErr: c.Err != nil,
				out:      k.Output,
				inserted: k.Inserted,
				failed:   !k.Completed,
			}
			compare("batch", i, a)
		}
	}
	wg.Wait()
}

// TestEngineCheckAllAndStats smoke-tests the convenience path and lifetime
// counters through the public API.
func TestEngineCheckAllAndStats(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4})
	schema, err := e.CompileDTD(Figure1DTD, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, stats := e.CheckAll(schema, []string{exampleS, exampleW, "<r"})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if !results[0].PotentiallyValid || results[1].PotentiallyValid || results[2].Err == nil {
		t.Errorf("verdicts: %+v", results)
	}
	if stats.PotentiallyValid != 1 || stats.Malformed != 1 {
		t.Errorf("stats: %+v", stats)
	}
	if agg := e.Stats(); agg.Docs != 3 || agg.Workers != 4 {
		t.Errorf("lifetime: %+v", agg)
	}
	if e.Handler() == nil {
		t.Error("Handler() returned nil")
	}
}

// TestEngineSubmitBatch exercises the public async job API: submit, wait,
// stream NDJSON results, and compare verdict counts with the synchronous
// batch.
func TestEngineSubmitBatch(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4, JobWorkers: 2})
	defer e.Close()
	schema, err := e.CompileDTD(Figure1DTD, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]Doc, 150)
	for i := range docs {
		content := `<r><a><c>x</c><d></d></a></r>`
		if i%3 == 1 {
			content = `<r><a><b>text</b></a></r>` // potentially valid only
		}
		if i%3 == 2 {
			content = `<r><a>` // malformed
		}
		docs[i] = Doc{ID: fmt.Sprintf("d%d", i), Content: content}
	}
	job, err := e.SubmitBatch(schema, docs, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Job(job.ID()); !ok || got != job {
		t.Fatalf("Job(%q) lookup failed", job.ID())
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job stuck: %+v", job.Info())
	}
	info := job.Info()
	if info.State != "done" || info.Done != len(docs) {
		t.Fatalf("info = %+v", info)
	}
	var buf bytes.Buffer
	if _, err := job.WriteResults(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(docs) {
		t.Fatalf("results = %d lines, want %d", lines, len(docs))
	}
	if list := e.JobList(); len(list) != 1 || list[0].ID != job.ID() {
		t.Fatalf("JobList = %+v", list)
	}
	if st := e.JobStats(); st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("JobStats = %+v", st)
	}
	if _, err := e.CancelJob("nope"); err == nil {
		t.Fatal("CancelJob on unknown id must error")
	}
}
