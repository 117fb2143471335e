package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
)

// TestEngineTwoTierDifferential pins that the DFA fast path is invisible
// in engine verdicts: a fast engine and an engine compiling every schema
// with the DisableFastPath option, each on its batch and its reader path,
// produce identical PotentiallyValid, Valid and Detail for 1000+
// generated documents (valid, stripped, corrupted, half of them
// decorated) across the fixture and random DTDs, plus the
// validity bit's corner cases (whitespace inside EMPTY elements,
// AllowAnyRoot with a non-schema root); every path equals the sequential
// tree path's verdict.
func TestEngineTwoTierDifferential(t *testing.T) {
	fast, err := Open(Config{Workers: 4, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := Open(Config{Workers: 4, VolatileJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	type workload struct {
		src  string
		root string
		opts CompileOptions
		docs []Doc
	}
	rng := rand.New(rand.NewSource(406))
	var workloads []workload

	// Fixture DTDs plus random ones of every recursion class.
	type schemaCase struct {
		src  string
		root string
		opts CompileOptions
	}
	cases := []schemaCase{
		{dtd.Figure1, "r", CompileOptions{}},
		{dtd.Figure1, "r", CompileOptions{IgnoreWhitespaceText: true}},
		{dtd.Figure1, "r", CompileOptions{AllowAnyRoot: true}},
		{dtd.Play, "play", CompileOptions{}},
		{dtd.WeakRecursive, "p", CompileOptions{}},
		{dtd.T2, "a", CompileOptions{}},
	}
	for _, class := range []gen.DTDClass{gen.ClassNonRecursive, gen.ClassWeak, gen.ClassStrong} {
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: 8 + rng.Intn(8), Class: class})
		cases = append(cases, schemaCase{d.String(), "e0", CompileOptions{}})
	}
	for _, sc := range cases {
		d, err := dtd.Parse(sc.src)
		if err != nil {
			t.Fatal(err)
		}
		w := workload{src: sc.src, root: sc.root, opts: sc.opts}
		for i := 0; i < 120; i++ {
			doc := gen.GenValid(rng, d, sc.root, gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
			switch i % 4 {
			case 1:
				gen.Strip(rng, doc, 0.3)
			case 2:
				gen.Corrupt(rng, d, doc)
			case 3:
				gen.StripAll(doc)
			}
			xml := doc.String()
			if i%8 >= 4 {
				xml = gen.Decorate(rng, xml)
			}
			w.docs = append(w.docs, Doc{ID: fmt.Sprintf("%s-%d", sc.root, i), Content: xml})
		}
		workloads = append(workloads, w)
	}
	// Hand-written corners the generator cannot hit: checker-invisible
	// text inside EMPTY elements (the validator rejects it, the stream
	// checker never sees it) and a non-schema root under AllowAnyRoot.
	workloads = append(workloads,
		workload{src: dtd.Figure1, root: "r", opts: CompileOptions{IgnoreWhitespaceText: true}, docs: []Doc{
			{ID: "ws-in-empty", Content: "<r><a><b><d>t</d></b><c>y</c><d><e> </e></d></a></r>"},
			{ID: "valid", Content: "<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>"},
		}},
		workload{src: dtd.Figure1, root: "r", opts: CompileOptions{}, docs: []Doc{
			{ID: "cdata-in-empty", Content: "<r><a><b><d>t</d></b><c>y</c><d><e><![CDATA[]]></e></d></a></r>"},
		}},
		workload{src: dtd.Figure1, root: "r", opts: CompileOptions{AllowAnyRoot: true}, docs: []Doc{
			{ID: "anyroot-d", Content: "<d><e></e>t</d>"},
			{ID: "anyroot-r", Content: "<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>"},
		}},
	)

	total := 0
	for _, w := range workloads {
		fs, err := fast.Compile(DTDSource, w.src, w.root, w.opts)
		if err != nil {
			t.Fatal(err)
		}
		slowOpts := w.opts
		slowOpts.DisableFastPath = true
		ss, err := slow.Compile(DTDSource, w.src, w.root, slowOpts)
		if err != nil {
			t.Fatal(err)
		}
		fr, _ := fast.CheckBatch(fs, w.docs)
		sr, _ := slow.CheckBatch(ss, w.docs)
		for i, d := range w.docs {
			pv, valid, malformed := sequentialVerdict(fs.Core, fs.Valid, d.Content)
			want := verdictLine(d.ID, pv, valid, malformed)
			for _, path := range []struct {
				name string
				r    Result
			}{
				{"fast", fr[i]},
				{"slow", sr[i]},
				{"fast reader", fast.CheckReader(fs, d.ID, strings.NewReader(d.Content))},
				{"slow reader", slow.CheckReader(ss, d.ID, strings.NewReader(d.Content))},
			} {
				r := path.r
				if got := verdictLine(r.ID, r.PotentiallyValid, r.Valid, r.Err != nil); got != want || r.Detail != sr[i].Detail {
					t.Fatalf("doc %s (root %s, opts %+v): %s %+v, want %s (detail %q)\n%s",
						d.ID, w.root, w.opts, path.name, r, want, sr[i].Detail, d.Content)
				}
			}
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("differential corpus too small: %d documents, want >= 1000", total)
	}

	// The workload above is valid-heavy, so the fast engine must have
	// settled elements on the DFA lane (and the slow engine must never
	// have touched it).
	if st := fast.Stats(); st.FastPathHits == 0 {
		t.Fatal("fast engine recorded no fast-path hits over a valid-heavy corpus")
	} else if st.DFAStates == 0 {
		t.Fatal("fast engine reports no resident DFA states")
	}
	if st := slow.Stats(); st.FastPathHits != 0 || st.FastPathFallbacks != 0 || st.DFAStates != 0 {
		t.Fatalf("slow engine touched the fast path: %+v", st)
	}
}
