package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/validator"
)

// sequentialVerdict replicates the sequential tree path (pv.Schema
// CheckString semantics): parse errors have no verdict; otherwise the
// potential-validity and full-validity bits.
func sequentialVerdict(c *core.Schema, v *validator.Validator, xml string) (pv, valid, malformed bool) {
	doc, err := dom.Parse(xml)
	if err != nil {
		return false, false, true
	}
	if c.CheckDocument(doc.Root) != nil {
		return false, false, false
	}
	return true, v.Validate(doc.Root) == nil, false
}

func verdictLine(id string, pv, valid, malformed bool) string {
	return fmt.Sprintf("%s pv=%t valid=%t malformed=%t", id, pv, valid, malformed)
}

// TestBatchMatchesSequential is the differential property test of the
// acceptance criteria: engine.CheckBatch with 8 workers, and the
// bounded-memory reader path, must produce byte-identical verdicts to the
// sequential tree path over a generated corpus covering all three DTD
// recursion classes and valid, tag-stripped, corrupted, decorated and
// malformed documents. Run under -race in CI.
func TestBatchMatchesSequential(t *testing.T) {
	classes := []struct {
		name string
		c    gen.DTDClass
	}{
		{"nonrecursive", gen.ClassNonRecursive},
		{"weak", gen.ClassWeak},
		{"strong", gen.ClassStrong},
	}
	e := New(Config{Workers: 8})
	total := 0
	for ci, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 10, Class: cl.c})
			schema, err := e.Compile(DTDSource, d.String(), "e0", CompileOptions{})
			if err != nil {
				t.Fatalf("generated DTD does not compile: %v\n%s", err, d.String())
			}

			var docs []Doc
			add := func(kind string, xml string) {
				docs = append(docs, Doc{ID: fmt.Sprintf("%s-%s%03d", cl.name, kind, len(docs)), Content: xml})
			}
			for i := 0; i < 25; i++ {
				doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
				add("valid", doc.String())
			}
			for i := 0; i < 20; i++ {
				doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
				gen.Strip(rng, doc, 0.3+0.5*rng.Float64())
				add("stripped", doc.String())
			}
			for i := 0; i < 15; i++ {
				doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
				gen.Corrupt(rng, d, doc)
				add("corrupted", doc.String())
			}
			for i := 0; i < 20; i++ {
				doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
				if i%2 == 1 {
					gen.Strip(rng, doc, 0.3)
				}
				add("decorated", gen.Decorate(rng, doc.String()))
			}
			for i := 0; i < 10; i++ {
				doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
				src := doc.String()
				add("truncated", src[:rng.Intn(len(src))])
			}
			total += len(docs)

			results, stats := e.CheckBatch(schema, docs)
			if stats.Workers < 1 || stats.Docs != len(docs) {
				t.Fatalf("stats: %+v", stats)
			}
			var batchLines, readerLines, seqLines []string
			for i, r := range results {
				batchLines = append(batchLines, verdictLine(r.ID, r.PotentiallyValid, r.Valid, r.Err != nil))
				rr := e.CheckReader(schema, docs[i].ID, strings.NewReader(docs[i].Content))
				readerLines = append(readerLines, verdictLine(rr.ID, rr.PotentiallyValid, rr.Valid, rr.Err != nil))
				pv, valid, malformed := sequentialVerdict(schema.Core, schema.Valid, docs[i].Content)
				seqLines = append(seqLines, verdictLine(docs[i].ID, pv, valid, malformed))
			}
			seq := strings.Join(seqLines, "\n")
			for _, path := range []struct {
				name  string
				lines []string
			}{{"batch", batchLines}, {"reader", readerLines}} {
				if strings.Join(path.lines, "\n") == seq {
					continue
				}
				for i := range path.lines {
					if path.lines[i] != seqLines[i] {
						t.Errorf("verdict mismatch:\n  %s: %s\n  seq:   %s\n  doc:   %.200q",
							path.name, path.lines[i], seqLines[i], docs[i].Content)
					}
				}
				t.Fatalf("%s and sequential verdicts differ", path.name)
			}

			// Every valid document must be PV (Valid ⊆ PV), and all stripped
			// documents must be PV (Theorem 2).
			for _, r := range results {
				if r.Valid && !r.PotentiallyValid {
					t.Errorf("%s: valid but not PV", r.ID)
				}
				kind := strings.Split(r.ID, "-")[1]
				if (strings.HasPrefix(kind, "valid") || strings.HasPrefix(kind, "stripped")) && !r.PotentiallyValid {
					t.Errorf("%s: generated-PV document rejected: %s / %v", r.ID, r.Detail, r.Err)
				}
			}
		})
	}
	if total < 200 {
		t.Fatalf("corpus too small: %d documents, want >= 200", total)
	}
}

// TestBatchDeterministic re-runs the same batch and demands identical
// results regardless of worker interleaving.
func TestBatchDeterministic(t *testing.T) {
	e := New(Config{Workers: 8})
	rng := rand.New(rand.NewSource(42))
	d := gen.RandDTD(rng, gen.DTDOptions{Elements: 8, Class: gen.ClassWeak})
	schema, err := e.Compile(DTDSource, d.String(), "e0", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var docs []Doc
	for i := 0; i < 64; i++ {
		doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 6})
		gen.Strip(rng, doc, 0.4)
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	first, _ := e.CheckBatch(schema, docs)
	for round := 0; round < 4; round++ {
		again, _ := e.CheckBatch(schema, docs)
		for i := range again {
			if again[i].PotentiallyValid != first[i].PotentiallyValid ||
				again[i].Valid != first[i].Valid ||
				(again[i].Err != nil) != (first[i].Err != nil) ||
				again[i].Detail != first[i].Detail {
				t.Fatalf("round %d doc %d: %+v vs %+v", round, i, again[i], first[i])
			}
		}
	}
}
