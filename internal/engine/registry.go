// Package engine is the concurrent checking subsystem: a two-tier schema
// store that compiles DTD/XSD sources once and caches the compiled
// artifacts (an in-memory LRU over an optional disk-backed
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

// CompileOptions are the core compile options. They are part of the cache
// key, so two compilations of the same source with different options
// (DisableFastPath included) are distinct artifacts with distinct refs.
type CompileOptions = core.Options

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
// under concurrent misses for the same key: the slot is published under the
// registry lock, but compilation (or disk rehydration) runs outside it, so
// N racing clients cost one compilation, not N.
type entry struct {
	key    key
	ref    string // refOf(key), precomputed for ResolveRef prefix scans
	srcLen int
	once   sync.Once
	done   atomic.Bool // set after once.Do completes; guards schema/err reads
	schema *Schema
	err    error
	hits   int64 // guarded by the registry mutex
	elem   *list.Element
}

// DefaultCapacity is the store's default LRU bound.
const DefaultCapacity = 64

// Registry is the two-tier schema store: tier 1 is an in-memory LRU of
// compiled schemas under one mutex, tier 2 an optional disk-backed
// content-addressed cache of compiled-schema blobs. Failed compilations are
// cached too (negative caching, memory tier only), so a hot loop of bad
// requests does not recompile per request.
type Registry struct {
	mu      sync.Mutex
	cap     int
	entries map[key]*entry
	lru     *list.List // front = most recently used; values are *entry

	hits      int64
	misses    int64
	evictions int64

	disk *schemastore.Cache

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
	Hits         int64              `json:"hits"`
	Misses       int64              `json:"misses"`
	Evictions    int64              `json:"evictions"`
	Compiles     int64              `json:"compiles"`
	DiskLoads    int64              `json:"diskLoads,omitempty"`
	DiskDiscards int64              `json:"diskDiscards,omitempty"`
	DFAStates    int64              `json:"dfaStates"`
	Disk         *schemastore.Stats `json:"disk,omitempty"`
}

// NewRegistry builds a memory-only registry bounded to capacity entries
// (<=0 selects DefaultCapacity).
func NewRegistry(capacity int) *Registry {
	return newRegistry(capacity, nil)
}

// newRegistry builds a registry bounded to capacity entries (<=0 selects
// DefaultCapacity), backed by the optional disk cache (nil for
// memory-only).
func newRegistry(capacity int, disk *schemastore.Cache) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Registry{cap: capacity, entries: make(map[key]*entry, capacity), lru: list.New(), disk: disk}
}

// getOrAdd finds or inserts the entry for k under the registry lock,
// touching its LRU position and stats. A new entry beyond the capacity
// evicts the least-recently-used one.
func (r *Registry) getOrAdd(k key, ref string, srcLen int) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[k]
	if ok {
		r.hits++
		e.hits++
		r.lru.MoveToFront(e.elem)
		return e
	}
	r.misses++
	e = &entry{key: k, ref: ref, srcLen: srcLen}
	e.elem = r.lru.PushFront(e)
	r.entries[k] = e
	for r.lru.Len() > r.cap {
		oldest := r.lru.Back()
		victim := oldest.Value.(*entry)
		r.lru.Remove(oldest)
		delete(r.entries, victim.key)
		r.evictions++
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
	e := r.getOrAdd(k, refOf(k), len(src))
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

// RefMinLen is the shortest accepted schemaRef prefix, in hex digits.
const RefMinLen = 8

// ResolveRef finds the cached compiled schema whose reference (Schema.Ref)
// begins with ref, case-insensitively. A hit touches the entry's LRU
// position like a Compile hit. Entries still compiling are invisible —
// a ref only works once the schema it names has been compiled. A ref
// missing from the memory tier (evicted, or cached by an earlier process)
// is resurrected from the disk tier when one is configured; a prefix that
// is not hex matches no entry and is refused by the disk tier before any
// file is touched.
func (r *Registry) ResolveRef(ref string) (*Schema, error) {
	if len(ref) < RefMinLen {
		return nil, routingErrf("engine: schemaRef %q is too short (want at least %d hex digits)", ref, RefMinLen)
	}
	want := strings.ToLower(ref)
	r.mu.Lock()
	var found *entry
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !e.done.Load() || !strings.HasPrefix(e.ref, want) {
			continue
		}
		if found != nil {
			r.mu.Unlock()
			return nil, routingErrf("engine: ambiguous schemaRef %q (matches several cached schemas)", ref)
		}
		found = e
	}
	if found != nil {
		defer r.mu.Unlock()
		if found.err != nil {
			return nil, routingErrf("engine: schemaRef %q names a schema that failed to compile: %v", ref, found.err)
		}
		r.hits++
		found.hits++
		r.lru.MoveToFront(found.elem)
		return found.schema, nil
	}
	r.mu.Unlock()
	return r.resurrectRef(want, ref)
}

// resurrectRef serves a ResolveRef miss from the disk tier: the unique blob
// whose content address starts with the prefix is decoded and installed in
// the memory tier, so a restarted process keeps honoring refs handed out by
// its predecessor even though no source was ever re-sent.
func (r *Registry) resurrectRef(want, orig string) (*Schema, error) {
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
	e := r.getOrAdd(env.key, fullRef, env.srcLen)
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
	c, err := core.Compile(d, root, opts)
	if err != nil {
		return nil, err
	}
	v, err := validator.New(d, root)
	if err != nil {
		return nil, err
	}
	return NewSchema(c, v), nil
}

// Stats returns a snapshot of the store's counters (plus the disk tier's,
// when configured).
func (r *Registry) Stats() RegistryStats {
	st := RegistryStats{
		Capacity:     r.cap,
		Compiles:     r.compiles.Load(),
		DiskLoads:    r.diskLoads.Load(),
		DiskDiscards: r.diskDiscards.Load(),
	}
	r.mu.Lock()
	st.Size = r.lru.Len()
	st.Hits = r.hits
	st.Misses = r.misses
	st.Evictions = r.evictions
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.done.Load() && e.schema != nil { // schema is immutable once done
			st.DFAStates += int64(e.schema.Core.FastPathStates())
		}
	}
	r.mu.Unlock()
	if r.disk != nil {
		ds := r.disk.Stats()
		st.Disk = &ds
	}
	return st
}

// Len returns the number of cached entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
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

// Schemas lists the cached entries, most recently used first. Entries
// still compiling are listed with zero detail fields.
func (r *Registry) Schemas() []SchemaInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SchemaInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
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
		out = append(out, info)
	}
	return out
}
