package core

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
)

var codecFixtures = []struct {
	name, src, root string
}{
	{"figure1", dtd.Figure1, "r"},
	{"t1", dtd.T1, "a"},
	{"t2", dtd.T2, "a"},
	{"weak", dtd.WeakRecursive, "p"},
	{"play", dtd.Play, "play"},
	{"teilite", dtd.TEILite, "TEI"},
	{"article", dtd.Article, "article"},
}

// TestBinaryRoundTripDifferential is the compiled-schema codec's acceptance
// property: for every fixture DTD (under several option sets),
// encode→decode must yield a schema whose verdicts are identical to the
// freshly compiled one — checked structurally (DTD rendering, DAG dumps,
// reach lookups, classification, depth) and differentially over >=200
// generated documents per fixture (valid, tag-stripped and corrupted), on
// both the tree and the streaming checker. The decoded schema's validity
// bit, and that of a decoded recognizer-only schema (whose position-set
// lanes are built from the decoded models), must equal the validator's.
func TestBinaryRoundTripDifferential(t *testing.T) {
	optSets := []Options{
		{},
		{MaxDepth: 5, IgnoreWhitespaceText: true},
		{AllowAnyRoot: true},
	}
	for _, fx := range codecFixtures {
		for oi, opts := range optSets {
			d, err := dtd.Parse(fx.src)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := Compile(d, fx.root, opts)
			if err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			blob, err := orig.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: marshal: %v", fx.name, err)
			}
			dec, err := UnmarshalBinary(blob)
			if err != nil {
				t.Fatalf("%s: unmarshal: %v", fx.name, err)
			}

			if dec.Root != orig.Root || dec.Class() != orig.Class() || dec.EffectiveDepth() != orig.EffectiveDepth() {
				t.Fatalf("%s/opts%d: root/class/depth mismatch: %s/%v/%d vs %s/%v/%d",
					fx.name, oi, dec.Root, dec.Class(), dec.EffectiveDepth(), orig.Root, orig.Class(), orig.EffectiveDepth())
			}
			if got, want := dec.Options(), orig.Options(); got != want {
				t.Fatalf("%s/opts%d: options %+v, want %+v", fx.name, oi, got, want)
			}
			if dec.DTD.String() != orig.DTD.String() {
				t.Fatalf("%s/opts%d: decoded DTD renders differently:\n%s\nvs\n%s", fx.name, oi, dec.DTD.String(), orig.DTD.String())
			}
			for _, name := range orig.DTD.Order {
				if got, want := dec.DAG.Element(name).Dump(), orig.DAG.Element(name).Dump(); got != want {
					t.Fatalf("%s/opts%d: DAG(%s) mismatch:\n%s\nvs\n%s", fx.name, oi, name, got, want)
				}
				if dec.LT.ReachesPCDATA(name) != orig.LT.ReachesPCDATA(name) ||
					dec.LT.ElementClass(name) != orig.LT.ElementClass(name) {
					t.Fatalf("%s/opts%d: LT(%s) pcdata/class mismatch", fx.name, oi, name)
				}
				for _, to := range orig.DTD.Order {
					if dec.LT.Reachable(name, to) != orig.LT.Reachable(name, to) ||
						dec.LT.StrongReachable(name, to) != orig.LT.StrongReachable(name, to) {
						t.Fatalf("%s/opts%d: LT reachability mismatch %s->%s", fx.name, oi, name, to)
					}
				}
			}

			if oi > 0 {
				continue // the differential corpus runs once per fixture
			}
			v := validator.MustNew(d, fx.root)
			decSlow := roundTrip(t, MustCompile(d, fx.root, Options{DisableFastPath: true}))
			validCheckers := []*StreamChecker{dec.NewStreamChecker(), decSlow.NewStreamChecker()}
			rng := rand.New(rand.NewSource(int64(len(fx.name)) * 31))
			for i := 0; i < 210; i++ {
				doc := gen.GenValid(rng, d, fx.root, gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
				switch i % 3 {
				case 1:
					gen.Strip(rng, doc, 0.4)
				case 2:
					gen.Corrupt(rng, d, doc)
				}
				wantV := orig.CheckDocument(doc)
				gotV := dec.CheckDocument(doc)
				if (wantV == nil) != (gotV == nil) {
					t.Fatalf("%s doc %d: tree verdict differs: orig=%v decoded=%v", fx.name, i, wantV, gotV)
				}
				src := doc.String()
				wantS := orig.CheckStream(src)
				gotS := dec.CheckStream(src)
				if (wantS == nil) != (gotS == nil) {
					t.Fatalf("%s doc %d: stream verdict differs: orig=%v decoded=%v", fx.name, i, wantS, gotS)
				}
				if gotB := dec.NewStreamChecker().RunBytes([]byte(src)); (gotB == nil) != (wantS == nil) {
					t.Fatalf("%s doc %d: byte-stream verdict differs: orig=%v decoded=%v", fx.name, i, wantS, gotB)
				}
				if wantS != nil {
					continue
				}
				wantValid := v.Validate(doc) == nil
				for k, c := range validCheckers {
					if err := c.Run(src); err != nil || c.StrictlyValid() != wantValid {
						t.Fatalf("%s doc %d: decoded checker %d: err=%v valid=%v, validator says %v", fx.name, i, k, err, c.StrictlyValid(), wantValid)
					}
				}
			}
		}
	}
}

// TestBinaryDecodeRejectsDamage pins the codec's failure discipline: bad
// magic, a bumped format version, a flipped payload byte, truncation and
// trailing garbage must all fail decoding (never panic, never return a
// half-built schema).
func TestBinaryDecodeRejectsDamage(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.Play), "play", Options{})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBinary(blob); err != nil {
		t.Fatalf("pristine blob must decode: %v", err)
	}

	reseal := func(b []byte) []byte {
		body := b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), blob[4:]...),
		"truncated": blob[:len(blob)/2],
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	cases["flipped byte"] = flipped

	versioned := append([]byte(nil), blob...)
	versioned[4] = BinaryVersion + 1 // the version varint is one byte for small versions
	cases["future version"] = reseal(versioned)

	cases["trailing garbage"] = reseal(append(append([]byte(nil), blob[:len(blob)-4]...), 0xAB, 0xCD))

	for name, data := range cases {
		if _, err := UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}
