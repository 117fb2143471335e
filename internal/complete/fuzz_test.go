package complete

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/validator"
)

// FuzzCompleteGenerated runs the completion oracle (checkExtension) on
// generated inputs. Each input picks a seed, a recursion class, an element
// count and a strip fraction; the target builds a random DTD and a valid
// document of depth at most 6 from them and strips that share of its tags,
// which leaves it potentially valid (Theorem 2). Completion must not
// panic, must succeed and validate, and must be an extension of the
// stripped document. The seed corpus is in testdata/fuzz.
func FuzzCompleteGenerated(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, class, elements, strip uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: 2 + int(elements%12), Class: gen.DTDClass(class % 3)})
		schema, err := core.Compile(d, "e0", core.Options{MaxDepth: 6})
		if err != nil {
			t.Fatalf("generated DTD does not compile: %v", err)
		}
		doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
		gen.Strip(rng, doc, float64(strip)/255)
		// Re-parse: the engine completes trees built from text.
		root := dom.MustParse(doc.String()).Root
		checkExtension(t, New(schema), validator.MustNew(d, "e0"), "generated document", root)
	})
}
