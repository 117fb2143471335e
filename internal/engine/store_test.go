package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
)

// The tests in this file keep several engines open over one cache
// directory at the same time (the differential comparisons need the cold
// engine alive next to the warm one). That is exactly what the job WAL's
// single-writer lock forbids, and none of these tests exercise jobs —
// hence VolatileJobs on every Open.

// TestDiskTierWarmStart pins the tentpole's cold-start contract: a first
// engine compiles and persists its schemas; a second engine over the same
// cache directory rehydrates every one of them with zero source
// compilations; and a third resolves a schemaRef it has never seen a
// source for (disk resurrection). Verdicts — including the full-validity
// bit, whose validator is rebuilt at decode time — are differentially
// identical to the freshly compiled engine's over a generated mixed
// corpus.
func TestDiskTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	fixtures := []struct {
		src, root string
		opts      CompileOptions
	}{
		{dtd.Play, "play", CompileOptions{}},
		{dtd.Figure1, "r", CompileOptions{}},
		{dtd.Figure1, "r", CompileOptions{MaxDepth: 5, IgnoreWhitespaceText: true}},
		{dtd.TEILite, "TEI", CompileOptions{}},
	}

	e1, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]string, len(fixtures))
	for i, fx := range fixtures {
		s, err := e1.Compile(DTDSource, fx.src, fx.root, fx.opts)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = s.Ref
	}
	st := e1.Store().Stats()
	if st.Compiles != int64(len(fixtures)) || st.DiskLoads != 0 {
		t.Fatalf("cold engine stats = %+v", st)
	}
	if st.Disk == nil || st.Disk.Writes != int64(len(fixtures)) {
		t.Fatalf("disk stats = %+v", st.Disk)
	}

	// Second start, warm directory: every Compile must rehydrate.
	e2, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, fx := range fixtures {
		s, err := e2.Compile(DTDSource, fx.src, fx.root, fx.opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.Ref != refs[i] {
			t.Fatalf("fixture %d: warm ref %s != cold ref %s", i, s.Ref[:16], refs[i][:16])
		}
	}
	st = e2.Store().Stats()
	if st.Compiles != 0 || st.DiskLoads != int64(len(fixtures)) {
		t.Fatalf("warm start must not compile: %+v", st)
	}

	// Differential: rehydrated artifacts give byte-identical verdicts.
	rng := rand.New(rand.NewSource(42))
	d := dtd.MustParse(dtd.Play)
	docs := make([]Doc, 200)
	for i := range docs {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
		switch i % 3 {
		case 1:
			gen.Strip(rng, doc, 0.4)
		case 2:
			gen.Corrupt(rng, d, doc)
		}
		docs[i] = Doc{ID: fmt.Sprint(i), Content: doc.String()}
	}
	s1, _ := e1.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	s2, _ := e2.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	r1, _ := e1.CheckBatch(s1, docs)
	r2, _ := e2.CheckBatch(s2, docs)
	for i := range r1 {
		if r1[i].PotentiallyValid != r2[i].PotentiallyValid || r1[i].Valid != r2[i].Valid ||
			(r1[i].Err != nil) != (r2[i].Err != nil) {
			t.Fatalf("doc %d: cold %+v vs warm %+v", i, r1[i], r2[i])
		}
	}

	// Third start: resolve a ref with no source ever submitted.
	e3, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e3.Store().ResolveRef(refs[0][:RefMinLen])
	if err != nil {
		t.Fatalf("disk resurrection failed: %v", err)
	}
	if rs.Ref != refs[0] {
		t.Fatalf("resurrected ref %s, want %s", rs.Ref[:16], refs[0][:16])
	}
	res := e3.Check(nil, Doc{ID: "routed", Content: `<play><title>t</title></play>`, SchemaRef: refs[0][:12]})
	if res.Err != nil || !res.PotentiallyValid {
		t.Fatalf("routed check after resurrection: %+v", res)
	}
	st = e3.Store().Stats()
	if st.Compiles != 0 || st.DiskLoads == 0 {
		t.Fatalf("resurrection must not compile: %+v", st)
	}
}

// TestDiskTierCorruptionFallsBack pins the failure discipline: a damaged
// blob is discarded (and deleted) and the schema silently recompiled from
// source; a resurrection attempt against a damaged blob is an unknown-ref
// routing error, not a crash.
func TestDiskTierCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e1.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blobPath := filepath.Join(dir, s.Ref[:2], s.Ref+".pvsc")
	if err := os.WriteFile(blobPath, []byte("garbage, not a schema"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e2.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatalf("corrupt blob must fall back to compile: %v", err)
	}
	if s2.Ref != s.Ref {
		t.Fatalf("ref changed across corruption fallback")
	}
	st := e2.Store().Stats()
	if st.Compiles != 1 || st.DiskDiscards != 1 || st.DiskLoads != 0 {
		t.Fatalf("fallback stats = %+v", st)
	}
	// The recompile re-persisted a good blob; a fresh engine loads it.
	e3, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Compile(DTDSource, dtd.Play, "play", CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := e3.Store().Stats(); st.Compiles != 0 || st.DiskLoads != 1 {
		t.Fatalf("post-repair stats = %+v", st)
	}

	// Resurrection against damage: corrupt again, resolve by prefix only.
	if err := os.WriteFile(blobPath, []byte("garbage again"), 0o644); err != nil {
		t.Fatal(err)
	}
	e4, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e4.Store().ResolveRef(s.Ref[:12]); !IsRoutingError(err) {
		t.Fatalf("resurrecting a corrupt blob = %v, want routing error", err)
	}
	if _, statErr := os.Stat(blobPath); !os.IsNotExist(statErr) {
		t.Errorf("corrupt blob should have been deleted")
	}
}

// TestDiskTierStaleVersionRecompiles pins the codec version-bump
// discipline: a disk blob whose core payload carries an older
// BinaryVersion (here: a pre-fast-path version 1 blob, crafted by patching
// a good blob's version varint and re-sealing its CRC) is discarded on
// load and the schema recompiled from source — stale schemastore caches
// can never smuggle in DFA-less artifacts under the current version.
func TestDiskTierStaleVersionRecompiles(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e1.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blobPath := filepath.Join(dir, s.Ref[:2], s.Ref+".pvsc")
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	// The core payload starts at the "PVSC" magic inside the engine
	// envelope; its version uvarint is the byte after the magic (small
	// versions are single-byte uvarints), and the payload ends in a CRC32
	// of everything before the checksum.
	idx := bytes.Index(blob, []byte("PVSC"))
	if idx < 0 {
		t.Fatal("no core payload magic in the disk blob")
	}
	payload := blob[idx:]
	if payload[4] != 2 {
		t.Fatalf("payload version byte = %d, want 2 (update this test alongside BinaryVersion)", payload[4])
	}
	payload[4] = 1
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], crc32.ChecksumIEEE(payload[:len(payload)-4]))
	if err := os.WriteFile(blobPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e2.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatalf("stale-version blob must fall back to compile: %v", err)
	}
	if s2.Ref != s.Ref {
		t.Fatalf("ref changed across the version fallback")
	}
	if !s2.Core.FastPathEnabled() {
		t.Fatal("recompiled schema lost its DFA fast path")
	}
	st := e2.Store().Stats()
	if st.Compiles != 1 || st.DiskDiscards != 1 || st.DiskLoads != 0 {
		t.Fatalf("stale-version fallback stats = %+v", st)
	}
	res := e2.Check(nil, Doc{ID: "d", Content: `<play><title>t</title></play>`, SchemaRef: s.Ref})
	if res.Err != nil || !res.PotentiallyValid {
		t.Fatalf("check after version fallback: %+v", res)
	}
	// The recompile re-persisted a current-version blob; a fresh engine
	// loads it clean.
	e3, err := Open(Config{Workers: 2, CacheDir: dir, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Compile(DTDSource, dtd.Play, "play", CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := e3.Store().Stats(); st.Compiles != 0 || st.DiskLoads != 1 {
		t.Fatalf("post-reseal stats = %+v", st)
	}
}

// TestRegistryResolveRefMinPrefix compiles a population of schemas and
// resolves every one by its minimum-length prefix.
func TestRegistryResolveRefMinPrefix(t *testing.T) {
	r := NewRegistry(64)
	for i := 0; i < 24; i++ {
		s, err := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{MaxDepth: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ResolveRef(s.Ref[:RefMinLen])
		if err != nil || got != s {
			t.Fatalf("schema %d: ResolveRef(%s) = %v, %v", i, s.Ref[:RefMinLen], got, err)
		}
	}
	if _, err := r.ResolveRef("zzzzzzzz"); !IsRoutingError(err) {
		t.Errorf("non-hex ref must be a routing error")
	}
	if st := r.Stats(); st.Size != 24 {
		t.Errorf("stats = %+v", st)
	}
}

// storeScript drives one deterministic op mix against a registry, either
// from 8 concurrent goroutines or sequentially from one. The op totals are
// order-independent by construction: the hot phase never exceeds the
// capacity (12 hot keys, so no eviction can disturb the hit counts), a
// barrier separates it from the cold phase, and each cold (evicting) key is
// compiled exactly once by exactly one goroutine — insert and eviction
// totals are then independent of interleaving, so the concurrent run must
// land on exactly the sequential run's counters.
func storeScript(r *Registry, parallel bool) {
	const (
		goroutines = 8
		rounds     = 5
		hotKeys    = 12
		coldKeys   = 40
	)
	hot := func() {
		for round := 0; round < rounds; round++ {
			for i := 0; i < hotKeys; i++ {
				s, err := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{MaxDepth: i + 1})
				if err != nil {
					panic(err)
				}
				if _, err := r.ResolveRef(s.Ref[:RefMinLen]); err != nil {
					panic(err)
				}
			}
		}
	}
	cold := func(g int) {
		for i := g; i < coldKeys; i += goroutines {
			if _, err := r.Compile(DTDSource, dtd.Play, "play", CompileOptions{MaxDepth: i + 1}); err != nil {
				panic(err)
			}
		}
	}
	if !parallel {
		for g := 0; g < goroutines; g++ {
			hot()
		}
		for g := 0; g < goroutines; g++ {
			cold(g)
		}
		return
	}
	each := func(fn func(g int)) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				fn(g)
			}(g)
		}
		wg.Wait()
	}
	each(func(int) { hot() })
	each(cold) // barrier above: evictions only start once the hot phase is done
}

// TestRegistryConcurrentExactStats hammers the store with parallel
// Compile/ResolveRef/evict traffic from 8 goroutines (run under -race in
// CI) and pins hits, misses, evictions and compiles to the exact totals of
// an identical sequential replay — compile-once, LRU accounting and ref
// resolution must all be deterministic under concurrency.
func TestRegistryConcurrentExactStats(t *testing.T) {
	// 48 slots hold the 12 hot keys with room to spare, so the hot phase
	// never evicts; the cold phase brings the total to 52 distinct keys,
	// so exactly 4 are evicted.
	const capacity = 48
	concurrent := NewRegistry(capacity)
	sequential := NewRegistry(capacity)
	storeScript(concurrent, true)
	storeScript(sequential, false)

	got, want := concurrent.Stats(), sequential.Stats()
	if got != want {
		t.Fatalf("concurrent stats diverge from sequential replay:\n  concurrent %+v\n  sequential %+v", got, want)
	}
	// Pin the arithmetic, not just the equality: 12 hot keys miss once each
	// and 40 cold keys miss once each; every other hot Compile is a hit and
	// every ResolveRef is a hit (8 goroutines × 5 rounds × 12 keys, twice,
	// minus the 12 first-touch misses).
	const hotOps = 8 * 5 * 12
	if want.Misses != 12+40 || want.Hits != hotOps-12+hotOps || want.Compiles != 12+40 {
		t.Fatalf("sequential replay totals unexpected: %+v", want)
	}
	if want.Evictions != 52-capacity || want.Size != capacity {
		t.Fatalf("evictions = %d, size = %d, want %d and %d: %+v", want.Evictions, want.Size, 52-capacity, capacity, want)
	}
}

// TestSchemaRefsStable pins refs byte for byte. A ref is persisted in disk
// blobs, WAL payloads and receipt leaves, and clients keep the ones GET
// /schemas hands out, so any change to how the key is digested (the
// options' field names, their order, their formatting) breaks all of them.
func TestSchemaRefsStable(t *testing.T) {
	for _, tc := range []struct {
		opts CompileOptions
		ref  string
	}{
		{CompileOptions{}, "ddfea6f2a19472615f58543c9bc435396356a5988b9552c3bb7c99898d3e4ba2"},
		{CompileOptions{MaxDepth: 5, IgnoreWhitespaceText: true}, "aeeb75d5db27a6151e21e3a236cc910a17867eb25ba81456b94a43e2f0552da9"},
		{CompileOptions{AllowAnyRoot: true, DisableFastPath: true}, "39ad3dc190d96579e67e337e320c8596d0f7cfc9b67877ef4676b47b6a4bb4f3"},
	} {
		s, err := NewRegistry(8).Compile(DTDSource, dtd.Figure1, "r", tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.Ref != tc.ref {
			t.Errorf("ref of Figure 1 under %+v = %s, want %s", tc.opts, s.Ref, tc.ref)
		}
	}
}

// TestRegistryCapacityIsGlobal pins that the store holds exactly its
// configured capacity: 64 distinct schemas fit the default 64 slots with
// no eviction, whatever their refs hash to.
func TestRegistryCapacityIsGlobal(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	for i := 1; i <= DefaultCapacity; i++ {
		if _, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{MaxDepth: i}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Store().Stats(); st.Size != DefaultCapacity || st.Evictions != 0 {
		t.Fatalf("%d distinct schemas in a %d-slot store: size %d, evictions %d", DefaultCapacity, st.Capacity, st.Size, st.Evictions)
	}
}

// TestResolveRefMalformedNeverTouchesDisk pins that a ref which is not a
// hex prefix is a routing error on a disk-backed engine, refused before
// the disk tier performs any lookup: its hit, miss and error counters do
// not move.
func TestResolveRefMalformedNeverTouchesDisk(t *testing.T) {
	e, err := Open(Config{Workers: 1, CacheDir: t.TempDir(), VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	before := *e.Store().Stats().Disk
	for _, ref := range []string{"ZZZZZZZZ", "../../etc/passwd", "abcdefg!"} {
		if _, err := e.Store().ResolveRef(ref); !IsRoutingError(err) {
			t.Errorf("ResolveRef(%q) = %v, want a routing error", ref, err)
		}
	}
	after := *e.Store().Stats().Disk
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Errors != before.Errors {
		t.Errorf("malformed refs reached the disk tier: before %+v, after %+v", before, after)
	}
}
