package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtd"
)

func mustSchema(t *testing.T, e *Engine, src, root string) *Schema {
	t.Helper()
	s, err := e.Compile(DTDSource, src, root, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckVerdicts(t *testing.T) {
	e := New(Config{Workers: 4})
	s := mustSchema(t, e, dtd.Figure1, "r")

	cases := []struct {
		name, xml          string
		pv, valid, wantErr bool
		detailFragment     string
	}{
		{name: "valid", xml: `<r><a><c>x</c><d></d></a></r>`, pv: true, valid: true},
		{name: "pv-incomplete", xml: `<r><a><b>A quick brown</b><c>fox</c> dog<e></e></a></r>`, pv: true},
		{name: "not-pv", xml: `<r><a><b>x</b><e></e><c>y</c></a></r>`, detailFragment: "not potentially valid"},
		{name: "undeclared", xml: `<r><zzz></zzz></r>`, detailFragment: "not declared"},
		{name: "wrong-root", xml: `<a></a>`, detailFragment: "root element is <a>"},
		{name: "malformed-mismatch", xml: `<r><a></b></r>`, wantErr: true},
		{name: "malformed-unclosed", xml: `<r><a>`, wantErr: true},
		{name: "malformed-empty", xml: ``, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := e.Check(s, Doc{ID: tc.name, Content: tc.xml})
			if (res.Err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", res.Err, tc.wantErr)
			}
			if res.PotentiallyValid != tc.pv || res.Valid != tc.valid {
				t.Errorf("pv=%v valid=%v, want pv=%v valid=%v (detail %q)",
					res.PotentiallyValid, res.Valid, tc.pv, tc.valid, res.Detail)
			}
			if tc.detailFragment != "" && !strings.Contains(res.Detail, tc.detailFragment) {
				t.Errorf("detail %q missing %q", res.Detail, tc.detailFragment)
			}
		})
	}
}

func TestCheckBatchOrderAndStats(t *testing.T) {
	e := New(Config{Workers: 8})
	s := mustSchema(t, e, dtd.Figure1, "r")

	var docs []Doc
	for i := 0; i < 100; i++ {
		var content string
		switch i % 3 {
		case 0:
			content = `<r><a><c>x</c><d></d></a></r>` // valid
		case 1:
			content = `<r><a><c>x</c></a></r>` // pv only (missing d)
		default:
			content = `<r><a>` // malformed
		}
		docs = append(docs, Doc{ID: fmt.Sprintf("doc%03d", i), Content: content})
	}
	results, stats := e.CheckBatch(s, docs)
	if len(results) != len(docs) {
		t.Fatalf("got %d results for %d docs", len(results), len(docs))
	}
	for i, r := range results {
		if r.Index != i || r.ID != docs[i].ID {
			t.Fatalf("result %d out of order: index %d id %s", i, r.Index, r.ID)
		}
	}
	if stats.Docs != 100 || stats.PotentiallyValid != 67 || stats.Valid != 34 || stats.Malformed != 33 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Workers != 8 || stats.DocsPerSec <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	agg := e.Stats()
	if agg.Docs != 100 || agg.PotentiallyValid != 67 || agg.Valid != 34 || agg.Malformed != 33 {
		t.Errorf("lifetime stats = %+v", agg)
	}
}

func TestCheckBatchEmptyAndSingle(t *testing.T) {
	e := New(Config{Workers: 4})
	s := mustSchema(t, e, dtd.Figure1, "r")
	results, stats := e.CheckBatch(s, nil)
	if len(results) != 0 || stats.Docs != 0 {
		t.Errorf("empty batch: %d results, stats %+v", len(results), stats)
	}
	results, _ = e.CheckAll(s, []string{`<r><a><c>x</c><d></d></a></r>`})
	if len(results) != 1 || !results[0].Valid {
		t.Errorf("single: %+v", results)
	}
}

// TestConcurrentBatchesShareWorkerBound runs several batches at once on one
// engine: the engine-wide semaphore must neither deadlock nor corrupt
// per-batch results (exercised under -race in CI).
func TestConcurrentBatchesShareWorkerBound(t *testing.T) {
	e := New(Config{Workers: 2})
	s := mustSchema(t, e, dtd.Figure1, "r")
	docs := make([]Doc, 40)
	for i := range docs {
		docs[i] = Doc{ID: fmt.Sprint(i), Content: `<r><a><c>x</c><d></d></a></r>`}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, stats := e.CheckBatch(s, docs)
			if stats.Valid != len(docs) {
				t.Errorf("stats: %+v", stats)
			}
			for i, r := range results {
				if !r.Valid || r.Index != i {
					t.Errorf("result %d: %+v", i, r)
				}
			}
		}()
	}
	wg.Wait()
	if got := e.Stats().Docs; got != 240 {
		t.Errorf("lifetime docs = %d, want 240", got)
	}
}

func TestRegistryHitMissEvict(t *testing.T) {
	r := NewRegistry(2)
	if _, err := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	s1, err := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if s1 != s2 {
		t.Error("hit did not return the cached artifact")
	}
	// Different options are a different key.
	if _, err := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{AllowAnyRoot: true}); err != nil {
		t.Fatal(err)
	}
	// Third distinct key evicts the LRU entry.
	if _, err := r.Compile(DTDSource, dtd.Play, "play", CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("size/cap = %d/%d, want 2/2", st.Size, st.Capacity)
	}
	if st.Hits != 2 || st.Misses != 3 || st.Evictions != 1 || st.Compiles != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRegistryNegativeCaching(t *testing.T) {
	r := NewRegistry(4)
	_, err1 := r.Compile(DTDSource, "<!ELEMENT a (b)>", "a", CompileOptions{}) // b undeclared
	if err1 == nil {
		t.Fatal("want compile error for undeclared reference")
	}
	_, err2 := r.Compile(DTDSource, "<!ELEMENT a (b)>", "a", CompileOptions{})
	if err2 == nil {
		t.Fatal("want cached compile error")
	}
	st := r.Stats()
	if st.Compiles != 1 || st.Hits != 1 {
		t.Errorf("failed compile not cached: %+v", st)
	}
	infos := r.Schemas()
	if len(infos) != 1 || infos[0].Error == "" {
		t.Errorf("schema listing should carry the error: %+v", infos)
	}
}

func TestRegistryConcurrentCompileOnce(t *testing.T) {
	r := NewRegistry(8)
	const goroutines = 32
	var wg sync.WaitGroup
	schemas := make([]*Schema, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Compile(DTDSource, dtd.TEILite, "TEI", CompileOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			schemas[i] = s
		}(i)
	}
	wg.Wait()
	for _, s := range schemas[1:] {
		if s != schemas[0] {
			t.Fatal("concurrent compiles returned distinct artifacts")
		}
	}
	if st := r.Stats(); st.Compiles != 1 {
		t.Errorf("compiled %d times, want 1 (%+v)", st.Compiles, st)
	}
}

func TestRegistrySchemasListing(t *testing.T) {
	r := NewRegistry(8)
	r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	r.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	infos := r.Schemas()
	if len(infos) != 2 {
		t.Fatalf("got %d infos", len(infos))
	}
	// MRU first.
	if infos[0].Root != "play" || infos[1].Root != "r" {
		t.Errorf("order: %+v", infos)
	}
	if infos[0].Class == "" || infos[0].Elements == 0 || infos[0].Hash == "" || infos[0].Kind != "dtd" {
		t.Errorf("missing detail: %+v", infos[0])
	}
}

func TestParseSourceKind(t *testing.T) {
	for in, want := range map[string]SourceKind{"": DTDSource, "dtd": DTDSource, "xsd": XSDSource} {
		got, err := ParseSourceKind(in)
		if err != nil || got != want {
			t.Errorf("ParseSourceKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSourceKind("relaxng"); err == nil {
		t.Error("want error for unknown kind")
	}
}
