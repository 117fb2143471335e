package xmltext_test

import (
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmltext"
)

// BenchmarkLexCorpus lexes the document mix that servebench's
// jobs_durable workload checks, one sub-benchmark per schema: documents
// generated in the same size band, half valid, a third with 30% of their
// tags stripped and a sixth corrupted.
func BenchmarkLexCorpus(b *testing.B) {
	for _, sc := range []struct {
		name, src, root    string
		minBytes, maxBytes int
	}{
		{"play", dtd.Play, "play", 600, 1300},
		{"article", dtd.Article, "article", 2500, 4800},
		{"tei", dtd.TEILite, "TEI", 2000, 4000},
	} {
		b.Run(sc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := dtd.MustParse(sc.src)
			var docs [][]byte
			var size int64
			for len(docs) < 120 {
				root := gen.GenValid(rng, d, sc.root, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3})
				if n := len(root.String()); n < sc.minBytes || n > sc.maxBytes {
					continue
				}
				switch len(docs) % 6 {
				case 3, 4:
					gen.Strip(rng, root, 0.3)
				case 5:
					gen.Corrupt(rng, d, root)
				}
				docs = append(docs, []byte(root.String()))
				size += int64(len(docs[len(docs)-1]))
			}
			lx := xmltext.NewByteLexer(nil)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, doc := range docs {
					lx.Reset(doc)
					for {
						tok, err := lx.Next()
						if err != nil {
							b.Fatal(err)
						}
						if tok == nil {
							break
						}
					}
				}
			}
		})
	}
}
