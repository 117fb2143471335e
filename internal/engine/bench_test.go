package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
)

// benchCorpus builds a mixed Play-DTD corpus: valid, stripped and corrupted
// documents, the firehose shape the engine is for.
func benchCorpus(n int) []Doc {
	rng := rand.New(rand.NewSource(7))
	d := dtd.MustParse(dtd.Play)
	docs := make([]Doc, 0, n)
	for i := 0; i < n; i++ {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8, MaxRepeat: 3})
		switch i % 3 {
		case 1:
			gen.Strip(rng, doc, 0.3)
		case 2:
			gen.Corrupt(rng, d, doc)
		}
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	return docs
}

// asBytes converts a corpus to byte-path documents.
func asBytes(docs []Doc) []Doc {
	out := make([]Doc, len(docs))
	for i, d := range docs {
		out[i] = Doc{ID: d.ID, Bytes: []byte(d.Content)}
	}
	return out
}

// BenchmarkEngineBatchPath measures CheckBatch throughput and allocs/op
// over a 1k-document mixed corpus.
func BenchmarkEngineBatchPath(b *testing.B) {
	docs := benchCorpus(1000)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Content))
	}
	e := New(Config{Workers: 4})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := e.CheckBatch(s, docs)
		if len(results) != len(docs) {
			b.Fatal("missing results")
		}
	}
}

// measureBatchAllocs runs CheckBatch over docs several times and returns
// the steady-state allocation count per batch.
func measureBatchAllocs(tb testing.TB, e *Engine, s *Schema, docs []Doc, rounds int) float64 {
	tb.Helper()
	e.CheckBatch(s, docs) // warm pools
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		if results, _ := e.CheckBatch(s, docs); len(results) != len(docs) {
			tb.Fatal("missing results")
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds)
}

// TestStringInputAllocParity pins the single input path: over a
// 1k-document mixed corpus, CheckBatch on Content documents allocates no
// more than on the same documents as Bytes, because both are read in
// place by the same lexer. The 1% slack absorbs pool refills after the
// measurement's GC; a string path with its own per-token allocations
// would cost several times the byte path's count.
func TestStringInputAllocParity(t *testing.T) {
	docs := benchCorpus(1000)
	byteDocs := asBytes(docs)
	e := New(Config{Workers: 4})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	strAllocs := measureBatchAllocs(t, e, s, docs, 3)
	byteAllocs := measureBatchAllocs(t, e, s, byteDocs, 3)
	t.Logf("allocs per 1k-doc batch: string=%.0f bytes=%.0f", strAllocs, byteAllocs)
	if strAllocs > 1.01*byteAllocs {
		t.Errorf("string documents allocate %.0f per batch, byte documents %.0f — want no more", strAllocs, byteAllocs)
	}
}

// BenchmarkEngineBatch measures batch throughput across worker counts; CI
// runs it once (-benchtime=1x) as a compile-and-run guard.
func BenchmarkEngineBatch(b *testing.B) {
	docs := benchCorpus(256)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Content))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(Config{Workers: workers})
			s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, _ := e.CheckBatch(s, docs)
				if len(results) != len(docs) {
					b.Fatal("missing results")
				}
			}
		})
	}
}

// completableCorpus builds a completion-workload corpus: tag-stripped (and
// some already-valid) play documents, all potentially valid.
func completableCorpus(n int) []Doc {
	rng := rand.New(rand.NewSource(9))
	d := dtd.MustParse(dtd.Play)
	docs := make([]Doc, 0, n)
	for i := 0; i < n; i++ {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 7, MaxRepeat: 2})
		if i%4 != 0 {
			gen.Strip(rng, doc, 0.3)
		}
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	return docs
}

// BenchmarkEngineComplete measures batched completion throughput across
// worker counts; CI runs it once (-benchtime=1x) as a compile-and-run
// guard.
func BenchmarkEngineComplete(b *testing.B) {
	docs := completableCorpus(128)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Content))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(Config{Workers: workers})
			s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, stats := e.CompleteBatch(s, docs, true)
				if len(results) != len(docs) || stats.Malformed != 0 {
					b.Fatal("completion corpus must be completable")
				}
			}
		})
	}
}
