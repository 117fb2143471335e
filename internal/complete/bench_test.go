package complete

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
)

// benchDoc is one corpus document with the completer for its schema.
type benchDoc struct {
	c    *Completer
	root *dom.Node
}

// completeCorpus mirrors the complete_batch service workload: Play
// documents of 600–1300 bytes and Article documents of 2500–4800 bytes,
// three in four of them tag-stripped at 0.3. Documents that are still
// valid are left out, as the engine answers those without the DP.
func completeCorpus(perSchema int) []benchDoc {
	rng := rand.New(rand.NewSource(1))
	var out []benchDoc
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
			// Re-parse: the engine completes trees built from text.
			root = dom.MustParse(root.String()).Root
			if val.Validate(root) != nil {
				out = append(out, benchDoc{c: c, root: root})
			}
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
