package complete

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
)

// goldenDigests pins, per corpus group, the SHA-256 of every completion's
// inserted count, inserted element names (creation order) and serialized
// output, so any change to the search order, the in-progress rule or the
// host ranges shows up here as a changed plan. The three recursive groups
// were re-recorded with the H table: their old plans came from a cycle
// guard that refused a host question already open for the same element and
// range at any depth, and 2, 4 and 20 of their documents changed. Every
// group was re-recorded when the stream checker became completion's gate:
// the 126 not-PV error texts took its wording, and 18 valid inputs now come
// back unchanged. The DP used to rewrite 10 of them under ambiguous models
// (random non-recursive part 13 docs 1 and 7, random strong part 12 doc 4
// and part 18 docs 0–2 and 4–7). The recognizer pre-check refused the
// other 8, reading their whitespace in element content as character data
// (figure1 docs 144 and 168, random non-recursive part 18 docs 0, 3 and 6
// and part 28 docs 3 and 6, random strong part 18 doc 3). No input the
// validator rejects changed its plan.
var goldenDigests = map[string]string{
	"figure1":             "5b0c81e6a459a1f8f2e48e2eb818c7e2b70912e7d7b8806bc0122601a839ecfe",
	"play":                "1ecd1994fe6de68a179af78af1628d67b0d486cef2b917bb8df0376981ea7e11",
	"article":             "6591174aa7f1fcc33a177e2c6d2c334fad232f06ba2a966697a5125a2e8dbe62",
	"tei-lite":            "05f16ba51ce127b45e9da4038d2324a5ad0f9a61b25208aea92cda399230e00c",
	"random-nonrecursive": "0527727e5922d64ee39afcebd8cb214e217c0479e797d24a43fe102ec1865f67",
	"random-weak":         "dc4dd55e5784f85f0faec249967e457571b5f9099a4ea75cf77252de2edbd931",
	"random-strong":       "95ac109b161e9467936561fbf405eb49cc583087456b2e818baf155cfb4a91dc",
}

// goldenGroup is a named set of schemas, each with the documents
// completed under it.
type goldenGroup struct {
	name  string
	parts []goldenPart
}

type goldenPart struct {
	schema *core.Schema
	docs   []string
}

// decorate sprinkles comments and whitespace-only text into n's subtree so
// the pin also covers how decorations are re-attached around wrappers.
func decorate(rng *rand.Rand, n *dom.Node) {
	var elems []*dom.Node
	n.Walk(func(x *dom.Node) bool {
		if x.Kind == dom.ElementNode {
			elems = append(elems, x)
		}
		return true
	})
	for _, e := range elems {
		if rng.Intn(3) != 0 {
			continue
		}
		var c *dom.Node
		if rng.Intn(2) == 0 {
			c = &dom.Node{Kind: dom.CommentNode, Data: " note "}
		} else {
			c = dom.NewText("\n  ")
		}
		e.InsertChild(rng.Intn(len(e.Children)+1), c)
	}
}

// strippedDocs draws n valid documents, strips a share of their tags
// (cycling through fractions) and optionally decorates them. Documents
// travel as text, exactly as the engine receives them.
func strippedDocs(rng *rand.Rand, d *dtd.DTD, root string, n int, opts gen.DocOptions, fractions []float64, withDecorations bool) []string {
	out := make([]string, 0, n)
	for k := 0; k < n; k++ {
		doc := gen.GenValid(rng, d, root, opts)
		gen.Strip(rng, doc, fractions[k%len(fractions)])
		if withDecorations && k%3 == 0 {
			decorate(rng, doc)
		}
		out = append(out, doc.String())
	}
	return out
}

// goldenCorpus builds the seeded corpus: the paper's Figure 1, the Play,
// Article and TEI-Lite fixtures, and random DTDs of all three recursion
// classes.
func goldenCorpus() []goldenGroup {
	var groups []goldenGroup
	fixture := func(name, src, root string, n int, opts gen.DocOptions, fractions []float64) {
		d := dtd.MustParse(src)
		rng := rand.New(rand.NewSource(int64(len(groups))*7919 + 1))
		groups = append(groups, goldenGroup{name: name, parts: []goldenPart{{
			schema: core.MustCompile(d, root, core.Options{}),
			docs:   strippedDocs(rng, d, root, n, opts, fractions, true),
		}}})
	}
	fixture("figure1", dtd.Figure1, "r", 450, gen.DocOptions{MaxDepth: 8, MaxRepeat: 4}, []float64{0.2, 0.5, 0.8, 1})
	fixture("play", dtd.Play, "play", 400, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}, []float64{0.3, 0.5, 0.1})
	fixture("article", dtd.Article, "article", 150, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}, []float64{0.3, 0.6})
	fixture("tei-lite", dtd.TEILite, "TEI", 30, gen.DocOptions{MaxDepth: 6, MaxRepeat: 2}, []float64{0.3})
	classes := []struct {
		name  string
		class gen.DTDClass
	}{
		{"random-nonrecursive", gen.ClassNonRecursive},
		{"random-weak", gen.ClassWeak},
		{"random-strong", gen.ClassStrong},
	}
	// Random documents stay small (depth 5, at most two repetitions), the
	// size the digests were first recorded at; TestCompleteStrippedCorpus
	// covers larger ones.
	for ci, cl := range classes {
		g := goldenGroup{name: cl.name}
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 6 + int(seed%6), Class: cl.class})
			schema, err := core.Compile(d, "e0", core.Options{MaxDepth: 6})
			if err != nil {
				panic(fmt.Sprintf("golden corpus: %s seed %d: %v", cl.name, seed, err))
			}
			g.parts = append(g.parts, goldenPart{
				schema: schema,
				docs:   strippedDocs(rng, d, "e0", 8, gen.DocOptions{MaxDepth: 5, MaxRepeat: 2}, []float64{0.4, 0.7}, seed%2 == 0),
			})
		}
		groups = append(groups, g)
	}
	return groups
}

// recordCompletion appends one completion's observable result to h: the
// inserted count, the inserted element names in creation order and the
// serialized output, or the error text when completion fails.
func recordCompletion(h hash.Hash, c *Completer, src string) error {
	doc, err := dom.Parse(src)
	if err != nil {
		return err
	}
	out, nodes, err := c.CompleteTracked(doc.Root)
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
		return nil
	}
	names := make([]string, len(nodes))
	for k, n := range nodes {
		names[k] = n.Name
	}
	doc.Root = out
	fmt.Fprintf(h, "inserted %d [%s]\n%s\n", len(nodes), strings.Join(names, " "), doc.String())
	return nil
}

// TestCompleteGoldenCorpus pins completion plans byte for byte over a
// seeded corpus of stripped documents.
func TestCompleteGoldenCorpus(t *testing.T) {
	groups := goldenCorpus()
	total := 0
	got := map[string]string{}
	for _, g := range groups {
		h := sha256.New()
		for pi, part := range g.parts {
			c := New(part.schema)
			for k, src := range part.docs {
				if err := recordCompletion(h, c, src); err != nil {
					t.Fatalf("%s part %d doc %d: %v", g.name, pi, k, err)
				}
			}
			total += len(part.docs)
		}
		got[g.name] = hex.EncodeToString(h.Sum(nil))
	}
	if total < 1500 {
		t.Fatalf("golden corpus has %d completions, want at least 1500", total)
	}
	all := sha256.New()
	for _, g := range groups {
		fmt.Fprintf(all, "%s %s\n", g.name, got[g.name])
	}
	t.Logf("%d completions over %d groups; corpus digest %x", total, len(groups), all.Sum(nil))
	for _, g := range groups {
		if want, ok := goldenDigests[g.name]; !ok {
			t.Errorf("group %s: no pinned digest (got %s)", g.name, got[g.name])
		} else if got[g.name] != want {
			t.Errorf("group %s: completion digest %s, pinned %s", g.name, got[g.name], want)
		}
	}
}

// goldenRecordDigests pins, per corpus group, the SHA-256 of every
// completion's insertion records (diff.ComputeDoc over the completed
// document), so a change to how records are derived shows up even when
// the plans themselves do not move. A failure hashes as a bare "error", so
// only figure1, random-nonrecursive and random-strong moved when valid
// inputs stopped taking insertions or failing the pre-check.
var goldenRecordDigests = map[string]string{
	"figure1":             "28ccee93d3edec86f4aaa2bfba1db3a13a951a80fc25dae04812b29877554528",
	"play":                "7ea153697da9f3d0dff566c8c97a5e85faf4f130307a1946ecc383695ea1d9b2",
	"article":             "a056c56889c01dd6658385d49fde0e9847b1e1937674d5f1697a97e276f60a63",
	"tei-lite":            "524fca2725626000f35f0e262a2295da36b6659e2a8750c516f111f0ad684e36",
	"random-nonrecursive": "f3e8beb6ff5c6725650185f9f2e9b187901a1ca79b8f8da045e4d6ce28439755",
	"random-weak":         "ee5807a462da292666bc01ab29b600c742be17471ae191eb795b5b175c4339a3",
	"random-strong":       "360efe9aa604c388f2bb8a5b13317b25eeb5c3f58ddd766bb08c4f0c1c725275",
}

// TestCompleteGoldenInsertionRecords pins the insertion records of the
// golden corpus: path, index, name and the synthesized bit of every
// record, in order.
func TestCompleteGoldenInsertionRecords(t *testing.T) {
	kinds := map[bool]int{} // records by their synthesized bit
	for _, g := range goldenCorpus() {
		h := sha256.New()
		for pi, part := range g.parts {
			c := New(part.schema)
			for k, src := range part.docs {
				doc, err := dom.Parse(src)
				if err != nil {
					t.Fatalf("%s part %d doc %d: %v", g.name, pi, k, err)
				}
				out, nodes, err := c.CompleteTracked(doc.Root)
				if err != nil {
					fmt.Fprintf(h, "error\n")
					continue
				}
				doc.Root = out
				d := diff.ComputeDoc(out, nodes, doc.String())
				fmt.Fprintf(h, "%d\n", d.Inserted)
				for _, r := range d.Insertions {
					fmt.Fprintf(h, "%s %d %s %t\n", r.Path, r.Index, r.Name, r.Synthesized)
					kinds[r.Synthesized]++
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want, ok := goldenRecordDigests[g.name]; !ok || got != want {
			t.Errorf("group %s: insertion-record digest %s, pinned %q", g.name, got, want)
		}
	}
	// The pin covers both kinds of record: invented subtrees and wrappers
	// around existing content.
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Errorf("records by synthesized bit: %v; want both kinds", kinds)
	}
	t.Logf("records: %d synthesized, %d wrappers", kinds[true], kinds[false])
}
