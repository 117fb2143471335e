package contentmodel

import (
	"fmt"
	"slices"
	"sort"
)

// PCDATASymbol is the symbol used for character data in automaton input.
// Element symbols are plain element names; they can never collide with this
// value because "#" is not a valid XML name start character.
const PCDATASymbol = "#PCDATA"

// Automaton is a Glushkov (position) automaton for a content-model
// expression. It matches sequences of symbols, where each symbol is an
// element name or PCDATASymbol. Construction is the classical
// first/last/follow computation; position 0 is the start, so its follow
// list is the first set and its last bit is nullability. Matching runs
// over sets of positions; a deterministic model's sets hold at most one
// position, so matching a sequence of length n over p positions costs
// O(n·p). The successor lists are frozen, sorted, at construction, so
// reading them allocates nothing.
type Automaton struct {
	symbols []string // symbol at each position, 1-based (index 0 unused)
	last    []bool   // last[p]: position p may end a match
	follow  [][]int  // sorted follow lists; follow[0] is the first set
}

// CompileAutomaton builds the Glushkov automaton for e. A nil expression
// yields an automaton accepting only the empty sequence (the EMPTY content
// model).
func CompileAutomaton(e *Expr) *Automaton {
	d := &draft{symbols: []string{""}, follow: []map[int]bool{nil}}
	info := posInfo{nullable: true}
	if e != nil {
		info = d.build(e)
	}
	a := &Automaton{
		symbols: d.symbols,
		last:    make([]bool, len(d.symbols)),
		follow:  make([][]int, len(d.symbols)),
	}
	a.follow[0], a.last[0] = sortedKeys(info.first), info.nullable
	for p := range info.last {
		a.last[p] = true
	}
	for p := 1; p < len(d.symbols); p++ {
		a.follow[p] = sortedKeys(d.follow[p])
	}
	return a
}

// draft accumulates positions and follow sets as maps while the
// expression is walked; CompileAutomaton freezes them into sorted lists.
type draft struct {
	symbols []string
	follow  []map[int]bool
}

type posInfo struct {
	first    map[int]bool
	last     map[int]bool
	nullable bool
}

func newPosInfo() posInfo {
	return posInfo{first: map[int]bool{}, last: map[int]bool{}}
}

func (d *draft) newPosition(sym string) int {
	d.symbols = append(d.symbols, sym)
	d.follow = append(d.follow, map[int]bool{})
	return len(d.symbols) - 1
}

func (d *draft) build(e *Expr) posInfo {
	switch e.Kind {
	case KindName:
		p := d.newPosition(e.Name)
		info := newPosInfo()
		info.first[p] = true
		info.last[p] = true
		return info
	case KindPCDATA:
		p := d.newPosition(PCDATASymbol)
		info := newPosInfo()
		info.first[p] = true
		info.last[p] = true
		info.nullable = true // character data may be empty
		return info
	case KindSeq:
		info := d.build(e.Children[0])
		for _, c := range e.Children[1:] {
			right := d.build(c)
			// follow(last(left)) += first(right)
			for lp := range info.last {
				for rp := range right.first {
					d.follow[lp][rp] = true
				}
			}
			merged := newPosInfo()
			for p := range info.first {
				merged.first[p] = true
			}
			if info.nullable {
				for p := range right.first {
					merged.first[p] = true
				}
			}
			for p := range right.last {
				merged.last[p] = true
			}
			if right.nullable {
				for p := range info.last {
					merged.last[p] = true
				}
			}
			merged.nullable = info.nullable && right.nullable
			info = merged
		}
		return info
	case KindChoice:
		info := newPosInfo()
		for _, c := range e.Children {
			ci := d.build(c)
			for p := range ci.first {
				info.first[p] = true
			}
			for p := range ci.last {
				info.last[p] = true
			}
			info.nullable = info.nullable || ci.nullable
		}
		return info
	case KindStar, KindPlus:
		info := d.build(e.Children[0])
		for lp := range info.last {
			for fp := range info.first {
				d.follow[lp][fp] = true
			}
		}
		if e.Kind == KindStar {
			info.nullable = true
		}
		return info
	case KindOpt:
		info := d.build(e.Children[0])
		info.nullable = true
		return info
	}
	panic(fmt.Sprintf("contentmodel: unknown expression kind %v", e.Kind))
}

// Positions returns the number of positions in the automaton.
func (a *Automaton) Positions() int { return len(a.symbols) - 1 }

// Symbol returns the symbol carried by position p (1-based).
func (a *Automaton) Symbol(p int) string { return a.symbols[p] }

// First returns the sorted positions reachable from the start. The slice
// is the automaton's own and must not be modified.
func (a *Automaton) First() []int { return a.follow[0] }

// Follow returns the sorted positions following position p. The slice is
// the automaton's own and must not be modified.
func (a *Automaton) Follow(p int) []int { return a.follow[p] }

// Last reports whether position p may end a match.
func (a *Automaton) Last(p int) bool { return a.last[p] }

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Nullable reports whether the automaton accepts the empty sequence.
func (a *Automaton) Nullable() bool { return a.last[0] }

// Step returns the positions reached by reading sym from any position in
// cur, appended to next[:0]. Position 0 is the start, so []int{0} is the
// set before the first symbol; an empty result means no word of the
// language continues this way. A deterministic (1-unambiguous) model
// reaches at most one position per step.
func (a *Automaton) Step(next, cur []int, sym string) []int {
	next = next[:0]
	for _, p := range cur {
		for _, q := range a.follow[p] {
			if a.symbols[q] == sym && !slices.Contains(next, q) {
				next = append(next, q)
			}
		}
	}
	return next
}

// Accepts reports whether a match may end at some position of cur.
func (a *Automaton) Accepts(cur []int) bool {
	for _, p := range cur {
		if a.last[p] {
			return true
		}
	}
	return false
}

// Match reports whether the sequence of symbols is in the language of the
// content model.
func (a *Automaton) Match(symbols []string) bool {
	var buf [2][8]int
	cur, next := append(buf[0][:0], 0), buf[1][:0]
	for _, sym := range symbols {
		if next = a.Step(next, cur, sym); len(next) == 0 {
			return false
		}
		cur, next = next, cur
	}
	return a.Accepts(cur)
}

// MatchPrefix reports whether symbols is a prefix of some sequence in the
// language (useful for diagnostics: the first index at which matching fails).
// It returns the length of the longest viable prefix; len(symbols) means the
// whole input is viable.
func (a *Automaton) MatchPrefix(symbols []string) int {
	var buf [2][8]int
	cur, next := append(buf[0][:0], 0), buf[1][:0]
	for i, sym := range symbols {
		if next = a.Step(next, cur, sym); len(next) == 0 {
			return i
		}
		cur, next = next, cur
	}
	return len(symbols)
}

// DeterminismViolation describes a failure of the XML 1.0 "deterministic
// content model" constraint: two distinct positions carrying the same symbol
// are simultaneously reachable.
type DeterminismViolation struct {
	Symbol string
	// Context describes where the ambiguity arises ("first set" or the
	// symbol whose follow set is ambiguous).
	Context string
}

// String renders the violation as a one-line lint message naming the
// ambiguous symbol and where the ambiguity arises.
func (v DeterminismViolation) String() string {
	return fmt.Sprintf("content model is not deterministic: symbol %q is ambiguous in %s", v.Symbol, v.Context)
}

// CheckDeterminism verifies the XML 1.0 determinism (1-unambiguity)
// constraint on the automaton and returns all violations found. A valid DTD
// content model must be deterministic; the potential-validity machinery does
// not require determinism, so this check is surfaced as a lint.
func (a *Automaton) CheckDeterminism() []DeterminismViolation {
	var out []DeterminismViolation
	check := func(set []int, context string) {
		seen := map[string]bool{}
		var dup []string
		for _, p := range set {
			sym := a.symbols[p]
			if seen[sym] {
				dup = append(dup, sym)
			}
			seen[sym] = true
		}
		sort.Strings(dup)
		prev := ""
		for _, sym := range dup {
			if sym == prev {
				continue
			}
			prev = sym
			out = append(out, DeterminismViolation{Symbol: sym, Context: context})
		}
	}
	check(a.follow[0], "first set")
	for p := 1; p < len(a.symbols); p++ {
		check(a.follow[p], fmt.Sprintf("follow set of %q", a.symbols[p]))
	}
	return out
}
