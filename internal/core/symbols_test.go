package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"repro/internal/dtd"
	"repro/internal/gen"
)

// TestSymbolLookup pins the name table (SymbolID) over the fixture DTDs
// and random generated ones, each compiled and round-tripped through the
// binary codec: every declared name resolves to its symbol ID, and every
// undeclared probe resolves to none and is rejected with the stream
// checker's "not declared" violation. The probes are each name's proper
// prefixes (the empty name among them), the name plus a byte, the name
// case-flipped, a non-ASCII name and invalid UTF-8. Besides the fixtures,
// a DTD of long and near-identical names crosses the name key's 8- and
// 16-byte boundaries.
func TestSymbolLookup(t *testing.T) {
	var schemas []*Schema
	for _, fx := range []struct{ src, root string }{
		{dtd.Figure1, "r"}, {dtd.Play, "play"}, {dtd.Article, "article"}, {dtd.TEILite, "TEI"},
	} {
		schemas = append(schemas, MustCompile(dtd.MustParse(fx.src), fx.root, Options{}))
	}
	// Names on both sides of the table's 8- and 16-byte key boundaries,
	// and long names that differ only past their first and last 8 bytes.
	var long []string
	for k := 1; k <= 24; k++ {
		long = append(long, strings.Repeat("n", k), strings.Repeat("n", k-1)+"m")
	}
	for _, mid := range []string{"a", "b", "ab", "ba", "é"} {
		long = append(long, "nnnnnnnn"+mid+"nnnnnnnn", "Élément"+mid+"nnnnnnnn")
	}
	var src strings.Builder
	fmt.Fprintf(&src, "<!ELEMENT r (%s)*>\n", strings.Join(long, " | "))
	for _, name := range long {
		fmt.Fprintf(&src, "<!ELEMENT %s EMPTY>\n", name)
	}
	schemas = append(schemas, MustCompile(dtd.MustParse(src.String()), "r", Options{}))
	// One 9-byte name fills one of two slots, so across fresh compiles
	// (fresh multipliers) its 8-byte prefix, which has the same head, is
	// bound to probe that slot.
	for i := 0; i < 32; i++ {
		schemas = append(schemas, MustCompile(dtd.MustParse("<!ELEMENT abcdefghi (#PCDATA)>"), "abcdefghi", Options{}))
	}
	rng := rand.New(rand.NewSource(29))
	classes := []gen.DTDClass{gen.ClassNonRecursive, gen.ClassWeak, gen.ClassStrong}
	for i := 0; i < 30; i++ {
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: 2 + rng.Intn(120), Class: classes[i%3]})
		schemas = append(schemas, MustCompile(d, "e0", Options{}))
	}
	for _, s := range schemas {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := UnmarshalBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		checkSymbols(t, s, "compiled")
		checkSymbols(t, dec, "decoded")
	}
}

func checkSymbols(t *testing.T, s *Schema, label string) {
	t.Helper()
	for i, name := range s.DTD.Order {
		if got := s.SymbolID([]byte(name)); got != int32(i+1) {
			t.Errorf("%s %s schema: SymbolID(%q) = %d, want %d", label, s.Root, name, got, i+1)
		}
	}
	probes := []string{"élément", "\xff\xfe", "\xc3"}
	for _, name := range s.DTD.Order {
		for j := 0; j < len(name); j++ {
			probes = append(probes, name[:j])
		}
		probes = append(probes, name+"x", strings.Map(flipCase, name))
	}
	c := s.NewStreamChecker()
	for _, probe := range probes {
		if _, declared := s.DTD.Elements[probe]; declared {
			continue
		}
		if got := s.SymbolID([]byte(probe)); got != 0 {
			t.Errorf("%s %s schema: undeclared %q resolves to symbol %d", label, s.Root, probe, got)
		}
		c.Reset()
		if err := c.StartElement([]byte(s.Root)); err != nil {
			t.Fatalf("%s %s schema: root: %v", label, s.Root, err)
		}
		err := c.StartElement([]byte(probe))
		if want := fmt.Sprintf("element <%s> is not declared in the DTD", probe); err == nil || err.Error() != want || !IsViolation(err) {
			t.Errorf("%s %s schema: <%s> gave %v, want violation %q", label, s.Root, probe, err, want)
		}
	}
}

func flipCase(r rune) rune {
	if unicode.IsUpper(r) {
		return unicode.ToLower(r)
	}
	return unicode.ToUpper(r)
}
