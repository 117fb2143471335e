// Package core implements the paper's primary contribution: the
// ECRecognizer algorithm (Figure 5) for Element Content Potential Validity
// (Problem ECPV), the whole-document potential-validity check (Problem PV),
// a single-pass streaming variant, and the constant-time incremental update
// checks of Theorem 2 and Proposition 3.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dag"
	"repro/internal/dfa"
	"repro/internal/dtd"
	"repro/internal/reach"
)

// DefaultMaxDepth is the default bound on the depth of hypothetical
// (extension) documents considered for PV-strong recursive DTDs. The paper
// motivates a small bound: in practice most XML documents' depths are of
// one-digit magnitude (Section 4.3.1, citing [12]).
const DefaultMaxDepth = 16

// Options configures schema compilation.
type Options struct {
	// MaxDepth bounds the depth of extension documents considered when the
	// DTD is PV-strong recursive (Section 4.3.1). Zero means
	// DefaultMaxDepth. For non-PV-strong DTDs the recognizer is complete
	// regardless: the effective bound is raised to cover the longest
	// possible chain of missing intermediate elements.
	MaxDepth int
	// IgnoreWhitespaceText makes whitespace-only text nodes invisible to
	// the checker (they produce no σ symbol), except inside an EMPTY
	// element: EMPTY content admits no character data, so no insertion
	// makes whitespace there valid. Document-centric editing usually wants
	// false: all text is content.
	IgnoreWhitespaceText bool
	// AllowAnyRoot accepts documents whose root is any declared element,
	// not just the schema root.
	AllowAnyRoot bool
	// DisableFastPath skips compiling the content-model DFA tables, so
	// every element runs on the PV recognizer alone (the slow tier) and
	// validates on a Glushkov position set. Verdicts are identical either
	// way; the knob exists for apples-to-apples benching and as an
	// operational escape hatch.
	DisableFastPath bool
}

// Schema is a DTD compiled for potential-validity checking: the parsed
// declarations Γ, the designated root r, the reachability lookup table LT
// (Definition 5), and the DAG model DAG_T (Section 4.2).
type Schema struct {
	DTD  *dtd.DTD
	Root string
	LT   *reach.Table
	DAG  *dag.DAG

	opts  Options
	depth int // effective top-level recognizer depth
	// symNames maps a symbol ID back to its element name (index 0, σ, is
	// empty) — the replay direction when a checker leaves its DFA lane.
	symNames []string
	// symSlots is an open-addressing hash table over symNames, read by
	// SymbolID: each slot holds a name and its symbol ID, ID 0 marks an
	// empty slot, and its power-of-two length is at least twice the number
	// of elements. The per-schema random multipliers and seed (slotOf)
	// keep a crafted DTD from piling its names into one probe run.
	symSlots []symSlot
	symMul   [3]uint64
	symSeed  maphash.Seed
	// cats holds each symbol ID's content category, which decides the
	// validity of text inside the element.
	cats []dtd.Category
	// fast holds the per-element content-model DFAs (the fast path of the
	// two-tier stream checker); nil when compiled with DisableFastPath.
	fast *dfa.Set
	// lanes holds the Glushkov automaton of each Children or Mixed element
	// that has no DFA (the state cap, or DisableFastPath): the stream
	// checker's validity lane steps its position sets instead.
	lanes []*contentmodel.Automaton
}

// symSlot is one slot of the name table: a declared name, its nameKey
// head and its symbol ID.
type symSlot struct {
	name string
	head uint64
	id   int32
}

// Compile builds a Schema for checking potential validity w.r.t. d and
// root. It fails if the root is undeclared, if any content model references
// an undeclared element (reachability would be unsound), or if some element
// is unproductive (the paper's usability assumption, Section 3.3: an
// unproductive element can never occur in a finite valid document, and
// Theorem 3 — every nonterminal derives ε — relies on its absence).
func Compile(d *dtd.DTD, root string, opts Options) (*Schema, error) {
	if _, ok := d.Elements[root]; !ok {
		return nil, fmt.Errorf("core: root element %q is not declared", root)
	}
	if missing := d.UndeclaredReferences(); len(missing) > 0 {
		return nil, fmt.Errorf("core: content models reference undeclared elements: %s", strings.Join(missing, ", "))
	}
	lt := reach.Build(d)
	if unprod := unproductive(d, lt); len(unprod) > 0 {
		return nil, fmt.Errorf("core: unproductive elements (can never appear in a finite valid document): %s", strings.Join(unprod, ", "))
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	s := &Schema{
		DTD:  d,
		Root: root,
		LT:   lt,
		DAG:  dag.Build(d),
		opts: opts,
	}
	if !opts.DisableFastPath {
		s.fast = dfa.Compile(d, 0)
	}
	s.initSymbols()
	// For non-PV-strong DTDs nested recognizers implement missing
	// intermediate elements along acyclic chains only, so a bound of
	// longest-chain+2 makes the algorithm complete (the crosscheck oracle
	// agreement tests TestECPVAgainstOracleRandomDTDs and
	// TestTheorem1OracleAgreement tolerate no miss outside PV-strong
	// DTDs). For PV-strong DTDs the user bound is the semantics; we still
	// never go below the acyclic-chain requirement.
	minComplete := lt.LongestStrongChain() + 2
	s.depth = opts.MaxDepth
	if s.depth < minComplete {
		s.depth = minComplete
	}
	if lt.Class() != reach.PVStrongRecursive {
		s.depth = minComplete
	}
	return s, nil
}

// MustCompile is Compile that panics on error; for tests and fixtures.
func MustCompile(d *dtd.DTD, root string, opts Options) *Schema {
	s, err := Compile(d, root, opts)
	if err != nil {
		panic(err)
	}
	return s
}

func unproductive(d *dtd.DTD, lt *reach.Table) []string {
	var out []string
	for _, name := range d.Order {
		// Usable(name) marks name itself usable iff productive (an element
		// trivially reaches itself as root).
		if !lt.Usable(name)[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// initSymbols builds the symbol table (ID mappings, the name table and
// content categories) and the position-set lanes of elements without a
// DFA from the DTD and the fast-path tables; shared by Compile and the
// binary decoder. Symbol IDs are 1-based in declaration order; σ is 0.
func (s *Schema) initSymbols() {
	m := len(s.DTD.Order)
	s.symNames = make([]string, m+1)
	size := 2
	for size < 2*m {
		size <<= 1
	}
	s.symSlots = make([]symSlot, size)
	s.symMul = [3]uint64{rand.Uint64() | 1, rand.Uint64() | 1, rand.Uint64() | 1}
	s.symSeed = maphash.MakeSeed()
	s.cats = make([]dtd.Category, m+1)
	s.lanes = make([]*contentmodel.Automaton, m+1)
	for i, name := range s.DTD.Order {
		id := int32(i + 1)
		decl := s.DTD.Elements[name]
		s.symNames[id] = name
		head, tail := nameKey([]byte(name))
		slot := s.slotOf([]byte(name), head, tail) & uint32(size-1)
		for s.symSlots[slot].id != 0 {
			slot = (slot + 1) & uint32(size-1)
		}
		s.symSlots[slot] = symSlot{name: name, head: head, id: id}
		s.cats[id] = decl.Category
		if (decl.Category == dtd.Children || decl.Category == dtd.Mixed) && s.fastMachine(id) == nil {
			s.lanes[id] = contentmodel.CompileAutomaton(decl.Model)
		}
	}
}

// SymbolID returns the symbol ID of the element declared as name, or 0
// when none is. It hashes the bytes in place, so a lexed name never
// becomes a string, and a checker that keeps symNames[id] keeps the
// schema's copy of the name, never the document's. The stream checker and
// the completer's byte path resolve element names through it.
func (s *Schema) SymbolID(name []byte) int32 {
	head, tail := nameKey(name)
	mask := uint32(len(s.symSlots) - 1)
	for slot := s.slotOf(name, head, tail) & mask; ; slot = (slot + 1) & mask {
		e := &s.symSlots[slot]
		if e.id == 0 {
			return 0
		}
		// A name of up to eight bytes is its head and length.
		if e.head == head && len(e.name) == len(name) && (len(name) <= 8 || e.name == string(name)) {
			return e.id
		}
	}
}

// nameKey packs a name's first and last eight bytes little-endian (the
// head alone, zero-padded, for a name shorter than eight bytes): with the
// length, all of a name of up to 16 bytes.
func nameKey(name []byte) (head, tail uint64) {
	if n := len(name); n >= 8 {
		return binary.LittleEndian.Uint64(name), binary.LittleEndian.Uint64(name[n-8:])
	}
	for i := len(name) - 1; i >= 0; i-- {
		head = head<<8 | uint64(name[i])
	}
	return head, 0
}

// slotOf returns the first slot to probe for a name with the given key:
// a multiply-shift hash of the key under the schema's random multipliers,
// or maphash for a name longer than its key.
func (s *Schema) slotOf(name []byte, head, tail uint64) uint32 {
	if len(name) > 16 {
		return uint32(maphash.Bytes(s.symSeed, name))
	}
	return uint32((head*s.symMul[0] + tail*s.symMul[1] + uint64(len(name))*s.symMul[2]) >> 32)
}

// symbolOf maps an interned symbol ID back to its Δ_T symbol — the replay
// direction when a stream checker abandons a DFA lane and hands the
// buffered prefix to a recognizer.
func (s *Schema) symbolOf(id int32) Symbol {
	if id == 0 {
		return Sigma
	}
	return Elem(s.symNames[id])
}

// fastMachine returns the content-model DFA for the element with the
// given symbol ID, or nil when that element — or the whole schema — has
// no fast path.
func (s *Schema) fastMachine(id int32) *dfa.Machine {
	if s.fast == nil {
		return nil
	}
	return s.fast.Machine(id)
}

// FastPathEnabled reports whether the schema carries compiled DFA tables
// (false when compiled with Options.DisableFastPath).
func (s *Schema) FastPathEnabled() bool { return s.fast != nil }

// FastPathStates returns the total DFA state count across all element
// content models (0 without a fast path) — the pv_engine_dfa_states gauge
// sums this over resident schemas.
func (s *Schema) FastPathStates() int {
	if s.fast == nil {
		return 0
	}
	return s.fast.States()
}

// Class returns the DTD's recursion classification (Definitions 6-8).
func (s *Schema) Class() reach.Class { return s.LT.Class() }

// Options returns the options the schema was compiled with.
func (s *Schema) Options() Options { return s.opts }

// EffectiveDepth returns the depth bound actually used by top-level
// recognizers (the user bound adjusted for completeness on acyclic chains).
func (s *Schema) EffectiveDepth() int { return s.depth }

// CheckContent solves Problem ECPV: given an element name and the Δ_T
// symbol sequence of a node's children, it reports whether the content is
// potentially valid. Elements with ANY content accept trivially.
func (s *Schema) CheckContent(elem string, symbols []Symbol) bool {
	r := s.NewRecognizer(elem)
	return r.Recognize(symbols)
}

// CheckContentPrefix returns the number of symbols accepted before the
// first rejection; len(symbols) means the whole sequence is accepted.
func (s *Schema) CheckContentPrefix(elem string, symbols []Symbol) int {
	return validPrefix(s.NewRecognizer(elem), symbols)
}

// validPrefix feeds symbols to r and returns the index of the first one it
// rejects, or len(symbols) if it accepts them all.
func validPrefix(r *Recognizer, symbols []Symbol) int {
	for i, x := range symbols {
		if !r.Validate(x) {
			return i
		}
	}
	return len(symbols)
}
