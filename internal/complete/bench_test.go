package complete

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
)

// serviceDoc is one document of the complete_batch mix with the
// completer for its schema.
type serviceDoc struct {
	c     *Completer
	src   string
	valid bool
}

// serviceDocs mirrors the complete_batch service workload: Play documents
// of 600–1300 bytes and Article documents of 2500–4800 bytes, three in
// four of them tag-stripped at 0.3, perSchema of each, as the engine
// receives them.
func serviceDocs(perSchema int) []serviceDoc {
	rng := rand.New(rand.NewSource(1))
	var out []serviceDoc
	for _, fix := range []struct {
		src, root          string
		minBytes, maxBytes int
	}{
		{dtd.Play, "play", 600, 1300},
		{dtd.Article, "article", 2500, 4800},
	} {
		d := dtd.MustParse(fix.src)
		c := New(core.MustCompile(d, fix.root, core.Options{}))
		val := validator.MustNew(d, fix.root)
		for i := 0; i < perSchema; i++ {
			var root *dom.Node
			for {
				root = gen.GenValid(rng, d, fix.root, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3})
				if n := len(root.String()); n >= fix.minBytes && n <= fix.maxBytes {
					break
				}
			}
			if i%4 != 0 {
				gen.Strip(rng, root, 0.3)
			}
			src := root.String()
			out = append(out, serviceDoc{c: c, src: src, valid: val.Validate(dom.MustParse(src).Root) == nil})
		}
	}
	return out
}

// benchDoc is one corpus document with the completer for its schema.
type benchDoc struct {
	c    *Completer
	root *dom.Node
}

// completeCorpus is the complete_batch mix without its valid documents,
// which the engine answers without the DP, parsed as the tree path
// completes them.
func completeCorpus(perSchema int) []benchDoc {
	var out []benchDoc
	for _, d := range serviceDocs(perSchema) {
		if !d.valid {
			out = append(out, benchDoc{c: d.c, root: dom.MustParse(d.src).Root})
		}
	}
	return out
}

// BenchmarkCompleteCorpus times CompleteTracked (the PV pre-check plus
// the embedding DP) per completed document of the service mix and counts
// its allocations.
func BenchmarkCompleteCorpus(b *testing.B) {
	corpus := completeCorpus(64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		for _, d := range corpus {
			if _, _, err := d.c.CompleteTracked(d.root); err != nil {
				b.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	docs := float64(b.N * len(corpus))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/docs, "us/doc")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/docs, "allocs/doc")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/docs, "B/doc")
}

// BenchmarkCompleteBytes times CompleteBytes on the documents
// BenchmarkCompleteCorpus completes, from their bytes: the token pass,
// the DP, the splice and, under diff=on, the insertion records, against
// the tree path's parse, check, DP, serialization and diff walk there.
func BenchmarkCompleteBytes(b *testing.B) {
	var corpus []serviceDoc
	for _, d := range serviceDocs(64) {
		if !d.valid {
			corpus = append(corpus, d)
		}
	}
	for _, withDiff := range []bool{false, true} {
		b.Run(fmt.Sprintf("diff=%t", withDiff), func(b *testing.B) {
			srcs := make([][]byte, len(corpus))
			for k, d := range corpus {
				srcs[k] = []byte(d.src)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for b.Loop() {
				for k, d := range corpus {
					if _, err := d.c.CompleteBytes(srcs[k], withDiff); err != nil {
						b.Fatal(err)
					}
				}
			}
			runtime.ReadMemStats(&after)
			docs := float64(b.N * len(corpus))
			b.ReportMetric(float64(b.Elapsed().Microseconds())/docs, "us/doc")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/docs, "allocs/doc")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/docs, "B/doc")
		})
	}
}
