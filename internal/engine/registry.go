// Package engine is the concurrent checking subsystem: a sharded two-tier
// schema store that compiles DTD/XSD sources once and caches the compiled
// artifacts (lock-striped in-memory shards over an optional disk-backed
// content-addressed cache), and a worker-pool batch checker that fans
// documents out over a bounded number of goroutines, reusing per-worker
// streaming checker state. It is the service-shaped layer the ROADMAP's
// production north star asks for: compile once, check a firehose of
// documents — Theorem 4's linear-time check only pays off at scale when
// the k-dependent compilation cost is amortized across many documents.
package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/schemastore"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// SourceKind identifies the schema language of a registry source.
type SourceKind int

const (
	// DTDSource is classic DTD declaration syntax.
	DTDSource SourceKind = iota
	// XSDSource is the supported W3C XML Schema subset (internal/xsd).
	XSDSource
)

// String names the source kind ("dtd" / "xsd").
func (k SourceKind) String() string {
	if k == XSDSource {
		return "xsd"
	}
	return "dtd"
}

// ParseSourceKind converts a kind string ("dtd", "xsd", "" = dtd).
func ParseSourceKind(s string) (SourceKind, error) {
	switch s {
	case "", "dtd":
		return DTDSource, nil
	case "xsd":
		return XSDSource, nil
	}
	return 0, fmt.Errorf("engine: unknown schema kind %q (want \"dtd\" or \"xsd\")", s)
}

// CompileOptions mirrors core.Options; it is part of the cache key, so two
// compilations of the same source with different options are distinct
// artifacts.
type CompileOptions struct {
	MaxDepth             int
	IgnoreWhitespaceText bool
	AllowAnyRoot         bool
	// DisableFastPath compiles the schema without content-model DFA
	// tables, forcing every check onto the PV recognizer (core.Options.
	// DisableFastPath). Part of the key: the fast and slow artifacts of
	// one source are distinct cache entries with distinct refs.
	DisableFastPath bool
}

// key identifies one compiled artifact: source hash + root + options +
// schema language. Hashing (rather than keying on the full source) keeps
// the map cheap when clients resend multi-kilobyte schemas per request.
type key struct {
	hash [sha256.Size]byte
	kind SourceKind
	root string
	opts CompileOptions
}

// refOf digests the full key — source hash, kind, root and options — into
// the hex reference documents use to select a schema. Hashing the whole key
// (not just the source) keeps refs unambiguous when one source is compiled
// under several roots or option sets. The same digest addresses the
// compiled blob in the disk tier.
func refOf(k key) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%x|%d|%s|%+v", k.hash, k.kind, k.root, k.opts))
	return hex.EncodeToString(sum[:])
}

// entry is one registry slot. The sync.Once gives compile-once semantics
// under concurrent misses for the same key: the slot is published under its
// shard's lock, but compilation (or disk rehydration) runs outside it, so N
// racing clients cost one compilation, not N.
type entry struct {
	key     key
	ref     string // refOf(key), precomputed for ResolveRef prefix scans
	srcLen  int
	once    sync.Once
	done    atomic.Bool // set after once.Do completes; guards schema/err reads
	schema  *Schema
	err     error
	hits    int64 // guarded by the shard mutex
	touched int64 // registry clock at last touch, for global MRU listings
	elem    *list.Element
}

// DefaultCapacity is the store's default total LRU bound (split across
// shards).
const DefaultCapacity = 64

// DefaultShards is the default shard count of a sharded store.
const DefaultShards = 8

// shard is one lock stripe of the registry: an independently locked LRU
// over the keys whose refs hash into it.
type shard struct {
	mu      sync.Mutex
	cap     int
	entries map[key]*entry
	lru     *list.List // front = most recently used; values are *entry

	hits      int64
	misses    int64
	evictions int64
}

// Registry is the sharded two-tier schema store: tier 1 is a set of
// lock-striped in-memory shards (key-hash partitioned, each with its own
// LRU bound), tier 2 an optional disk-backed content-addressed cache of
// compiled-schema blobs. Failed compilations are cached too (negative
// caching, memory tier only), so a hot loop of bad requests does not
// recompile per request.
type Registry struct {
	shards []*shard
	disk   *schemastore.Cache

	// clock stamps entry touches so Schemas() can present a global MRU
	// ordering without a global LRU list.
	clock atomic.Int64

	compiles atomic.Int64
	// diskLoads counts schemas rehydrated from the disk tier instead of
	// compiled; diskDiscards counts blobs discarded as corrupt or
	// version-mismatched (each falls back to a source compile).
	diskLoads    atomic.Int64
	diskDiscards atomic.Int64
}

// RegistryStats is a snapshot of store counters. DiskLoads counts schemas
// rehydrated from the disk tier without compiling; DiskDiscards counts
// cache blobs discarded as corrupt or version-mismatched; DFAStates sums
// the compiled fast-path DFA states across resident schemas; Disk carries
// the disk tier's own I/O counters and is nil when no cache directory is
// configured.
type RegistryStats struct {
	Size         int                `json:"size"`
	Capacity     int                `json:"capacity"`
	Shards       int                `json:"shards"`
	Hits         int64              `json:"hits"`
	Misses       int64              `json:"misses"`
	Evictions    int64              `json:"evictions"`
	Compiles     int64              `json:"compiles"`
	DiskLoads    int64              `json:"diskLoads,omitempty"`
	DiskDiscards int64              `json:"diskDiscards,omitempty"`
	DFAStates    int64              `json:"dfaStates"`
	Disk         *schemastore.Stats `json:"disk,omitempty"`
}

// NewRegistry builds a single-shard, memory-only registry bounded to
// capacity entries (<=0 selects DefaultCapacity) — the configuration whose
// LRU and stats behavior is exactly the pre-sharding registry's.
func NewRegistry(capacity int) *Registry {
	return NewShardedRegistry(capacity, 1, nil)
}

// NewShardedRegistry builds a registry striped over the given shard count
// (<=0 selects DefaultShards) with the total capacity split evenly across
// shards (<=0 selects DefaultCapacity), backed by the optional disk cache
// (nil for memory-only).
func NewShardedRegistry(capacity, shards int, disk *schemastore.Cache) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > capacity {
		shards = capacity
	}
	r := &Registry{shards: make([]*shard, shards), disk: disk}
	for i := range r.shards {
		// Exact split: the first capacity%shards shards take the remainder,
		// so the summed capacity equals the configured bound.
		perShard := capacity / shards
		if i < capacity%shards {
			perShard++
		}
		r.shards[i] = &shard{
			cap:     perShard,
			entries: make(map[key]*entry, perShard),
			lru:     list.New(),
		}
	}
	return r
}

// shardFor maps a ref (or any >=8-hex-digit prefix of one) to its shard.
// The shard is determined by the first eight hex digits — exactly the
// RefMinLen prefix every valid schemaRef carries — so ref resolution is
// always a shard-local lookup. ok is false for non-hex input.
func (r *Registry) shardFor(ref string) (*shard, bool) {
	var v uint32
	for i := 0; i < 8; i++ {
		c := ref[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return nil, false
		}
	}
	return r.shards[v%uint32(len(r.shards))], true
}

// getOrAdd finds or inserts the entry for k under the shard lock, touching
// its LRU position and stats. New entries beyond the shard's capacity evict
// the shard's least-recently-used entry.
func (sh *shard) getOrAdd(k key, ref string, srcLen int, stamp int64) *entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	if ok {
		sh.hits++
		e.hits++
		e.touched = stamp
		sh.lru.MoveToFront(e.elem)
		return e
	}
	sh.misses++
	e = &entry{key: k, ref: ref, srcLen: srcLen, touched: stamp}
	e.elem = sh.lru.PushFront(e)
	sh.entries[k] = e
	for sh.lru.Len() > sh.cap {
		oldest := sh.lru.Back()
		victim := oldest.Value.(*entry)
		sh.lru.Remove(oldest)
		delete(sh.entries, victim.key)
		sh.evictions++
	}
	return e
}

// Compile returns the compiled schema for (kind, src, root, opts),
// compiling at most once per key and touching the entry's LRU position.
// With a disk tier configured, a first miss tries to rehydrate the
// compiled blob by its content address before compiling from source, and a
// fresh compilation is persisted for future processes.
func (r *Registry) Compile(kind SourceKind, src, root string, opts CompileOptions) (*Schema, error) {
	k := key{hash: sha256.Sum256([]byte(src)), kind: kind, root: root, opts: opts}
	ref := refOf(k)
	sh, _ := r.shardFor(ref) // refs are hex by construction
	e := sh.getOrAdd(k, ref, len(src), r.clock.Add(1))
	e.once.Do(func() {
		defer e.done.Store(true)
		if s, ok := r.loadFromDisk(e.ref, &k); ok {
			e.schema = s
			return
		}
		r.compiles.Add(1)
		e.schema, e.err = compile(kind, src, root, opts)
		if e.schema != nil {
			e.schema.Ref = e.ref
			r.persist(e)
		}
	})
	return e.schema, e.err
}

// loadFromDisk tries to rehydrate the compiled schema addressed by ref from
// the disk tier, verifying that the envelope's key matches want (when
// non-nil). Undecodable or mismatched blobs are deleted and counted as
// discards; every failure is just a miss — the caller compiles from source.
func (r *Registry) loadFromDisk(ref string, want *key) (*Schema, bool) {
	if r.disk == nil {
		return nil, false
	}
	data, err := r.disk.Get(ref)
	if err != nil {
		return nil, false
	}
	env, err := decodeEnvelope(data)
	if err == nil && want != nil && env.key != *want {
		err = fmt.Errorf("engine: cached blob %s carries a different schema key", ref[:16])
	}
	if err != nil {
		r.diskDiscards.Add(1)
		_ = r.disk.Delete(ref)
		return nil, false
	}
	env.schema.Ref = ref
	r.diskLoads.Add(1)
	return env.schema, true
}

// persist writes a freshly compiled entry's blob to the disk tier (best
// effort: cache I/O failures are counted by the cache and never fail the
// compile).
func (r *Registry) persist(e *entry) {
	if r.disk == nil {
		return
	}
	data, err := encodeEnvelope(&e.key, e.srcLen, e.schema)
	if err == nil {
		_ = r.disk.Put(e.ref, data)
	}
}

// RefMinLen is the shortest accepted schemaRef prefix, in hex digits. It
// also covers the shard selector (the first eight digits), so resolving a
// ref never scans more than one shard.
const RefMinLen = 8

// ResolveRef finds the cached compiled schema whose reference (Schema.Ref)
// begins with ref, case-insensitively. A hit touches the entry's LRU
// position like a Compile hit. Entries still compiling are invisible —
// a ref only works once the schema it names has been compiled. A ref
// missing from the memory tier (evicted, or cached by an earlier process)
// is resurrected from the disk tier when one is configured.
func (r *Registry) ResolveRef(ref string) (*Schema, error) {
	if len(ref) < RefMinLen {
		return nil, routingErrf("engine: schemaRef %q is too short (want at least %d hex digits)", ref, RefMinLen)
	}
	want := strings.ToLower(ref)
	sh, ok := r.shardFor(want)
	if !ok {
		return nil, routingErrf("engine: unknown schemaRef %q", ref)
	}
	sh.mu.Lock()
	var found *entry
	for el := sh.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !e.done.Load() || !strings.HasPrefix(e.ref, want) {
			continue
		}
		if found != nil {
			sh.mu.Unlock()
			return nil, routingErrf("engine: ambiguous schemaRef %q (matches several cached schemas)", ref)
		}
		found = e
	}
	if found != nil {
		defer sh.mu.Unlock()
		if found.err != nil {
			return nil, routingErrf("engine: schemaRef %q names a schema that failed to compile: %v", ref, found.err)
		}
		sh.hits++
		found.hits++
		found.touched = r.clock.Add(1)
		sh.lru.MoveToFront(found.elem)
		return found.schema, nil
	}
	sh.mu.Unlock()
	return r.resurrectRef(sh, want, ref)
}

// resurrectRef serves a ResolveRef miss from the disk tier: the unique blob
// whose content address starts with the prefix is decoded and installed in
// the shard, so a restarted process keeps honoring refs handed out by its
// predecessor even though no source was ever re-sent.
func (r *Registry) resurrectRef(sh *shard, want, orig string) (*Schema, error) {
	if r.disk == nil {
		return nil, routingErrf("engine: unknown schemaRef %q", orig)
	}
	fullRef, data, err := r.disk.FindByPrefix(want)
	if err != nil {
		if err == schemastore.ErrAmbiguous {
			return nil, routingErrf("engine: ambiguous schemaRef %q (matches several cached schemas)", orig)
		}
		return nil, routingErrf("engine: unknown schemaRef %q", orig)
	}
	env, err := decodeEnvelope(data)
	if err != nil || refOf(env.key) != fullRef {
		r.diskDiscards.Add(1)
		_ = r.disk.Delete(fullRef)
		return nil, routingErrf("engine: unknown schemaRef %q", orig)
	}
	env.schema.Ref = fullRef
	r.diskLoads.Add(1)
	e := sh.getOrAdd(env.key, fullRef, env.srcLen, r.clock.Add(1))
	// If a racing Compile for the same key got to the once first, Do waits
	// for it and that artifact wins; the one decoded here is dropped.
	e.once.Do(func() {
		e.schema = env.schema
		e.done.Store(true)
	})
	if e.err != nil {
		return nil, routingErrf("engine: schemaRef %q names a schema that failed to compile: %v", orig, e.err)
	}
	return e.schema, nil
}

// compile builds the artifact: parse the schema source, compile the
// potential-validity core, and build the full validator.
func compile(kind SourceKind, src, root string, opts CompileOptions) (*Schema, error) {
	var d *dtd.DTD
	var err error
	switch kind {
	case XSDSource:
		d, err = xsd.Parse(src)
	default:
		d, err = dtd.Parse(src)
	}
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(d, root, core.Options{
		MaxDepth:             opts.MaxDepth,
		IgnoreWhitespaceText: opts.IgnoreWhitespaceText,
		AllowAnyRoot:         opts.AllowAnyRoot,
		DisableFastPath:      opts.DisableFastPath,
	})
	if err != nil {
		return nil, err
	}
	v, err := validator.New(d, root)
	if err != nil {
		return nil, err
	}
	return NewSchema(c, v), nil
}

// Stats returns an aggregate snapshot of the store's counters across all
// shards (plus the disk tier's, when configured).
func (r *Registry) Stats() RegistryStats {
	st := RegistryStats{
		Shards:       len(r.shards),
		Compiles:     r.compiles.Load(),
		DiskLoads:    r.diskLoads.Load(),
		DiskDiscards: r.diskDiscards.Load(),
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		st.Size += sh.lru.Len()
		st.Capacity += sh.cap
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if e.done.Load() && e.schema != nil { // schema is immutable once done
				st.DFAStates += int64(e.schema.Core.FastPathStates())
			}
		}
		sh.mu.Unlock()
	}
	if r.disk != nil {
		ds := r.disk.Stats()
		st.Disk = &ds
	}
	return st
}

// Len returns the number of cached entries across all shards.
func (r *Registry) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// SchemaInfo describes one cached artifact for listings (GET /schemas).
type SchemaInfo struct {
	Hash        string `json:"hash"` // short hex prefix of the source hash
	Ref         string `json:"ref"`  // schemaRef prefix (full-key digest) for batch routing
	Kind        string `json:"kind"`
	Root        string `json:"root"`
	SourceBytes int    `json:"sourceBytes"`
	Elements    int    `json:"elements,omitempty"`
	Class       string `json:"class,omitempty"`
	Hits        int64  `json:"hits"`
	Error       string `json:"error,omitempty"`
}

// Schemas lists the cached entries, most recently used first (across all
// shards, by touch order). Entries still compiling are listed with zero
// detail fields.
func (r *Registry) Schemas() []SchemaInfo {
	type stamped struct {
		info    SchemaInfo
		touched int64
	}
	var all []stamped
	for _, sh := range r.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			info := SchemaInfo{
				Hash:        hex.EncodeToString(e.key.hash[:8]),
				Ref:         e.ref[:16],
				Kind:        e.key.kind.String(),
				Root:        e.key.root,
				SourceBytes: e.srcLen,
				Hits:        e.hits,
			}
			if e.done.Load() { // schema/err are immutable once done is set
				if e.err != nil {
					info.Error = e.err.Error()
				} else if e.schema != nil {
					info.Elements = len(e.schema.Core.DTD.Order)
					info.Class = e.schema.Core.Class().String()
				}
			}
			all = append(all, stamped{info: info, touched: e.touched})
		}
		sh.mu.Unlock()
	}
	// Insertion sort by descending touch stamp: listings are small (LRU
	// bounded) and this keeps the MRU-first contract of the single-mutex
	// registry.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j-1].touched < all[j].touched; j-- {
			all[j-1], all[j] = all[j], all[j-1]
		}
	}
	out := make([]SchemaInfo, len(all))
	for i, s := range all {
		out[i] = s.info
	}
	return out
}
