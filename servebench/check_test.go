package main

import (
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/receipt"
)

var testDocs = []doc{
	{id: "a", content: "<r/>", want: verdict{pv: true, valid: true}},
	{id: "b", content: "<r><x/></r>", want: verdict{pv: true}},
	{id: "c", content: "<q/>", want: verdict{}},
}

// verdictLines renders what pvserve answers for testDocs, in order.
func verdictLines(t *testing.T) []string {
	t.Helper()
	var out []string
	for i, d := range testDocs {
		res := resultJSON{ID: d.id, Index: i, PotentiallyValid: d.want.pv, Valid: d.want.valid}
		if !d.want.pv {
			res.Detail = "not potentially valid"
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

func TestCheckStreamReply(t *testing.T) {
	lines := verdictLines(t)
	good := strings.Join(lines, "\n") + "\n" + `{"stats":{"docs":3}}` + "\n"
	if err := checkStreamReply([]byte(good), testDocs); err != nil {
		t.Fatalf("a correct reply failed: %v", err)
	}
	flipped := strings.Replace(good, `"id":"b","index":1,"potentiallyValid":true`, `"id":"b","index":1,"potentiallyValid":false`, 1)
	bad := map[string]string{
		"flipped verdict":  flipped,
		"no stats line":    strings.Join(lines, "\n") + "\n",
		"stats miscount":   strings.Join(lines, "\n") + "\n" + `{"stats":{"docs":2}}` + "\n",
		"missing document": strings.Join(lines[:2], "\n") + "\n" + `{"stats":{"docs":3}}` + "\n",
		"reordered":        strings.Join([]string{lines[1], lines[0], lines[2]}, "\n") + "\n" + `{"stats":{"docs":3}}` + "\n",
		"terminal error":   lines[0] + "\n" + `{"error":"reading request body: http: invalid Read on closed Body"}` + "\n",
		"document error":   strings.Replace(good, `"detail":"not potentially valid"`, `"error":"xml: unexpected EOF"`, 1),
		"empty":            "",
	}
	for name, body := range bad {
		if err := checkStreamReply([]byte(body), testDocs); err == nil {
			t.Errorf("%s: reply accepted", name)
		}
	}
	if err := checkVerdictLines(splitLines([]byte(strings.Join(lines, "\n"))), testDocs); err != nil {
		t.Errorf("job results: %v", err)
	}
}

func TestCheckCompleteReply(t *testing.T) {
	docs := testDocs[:2]
	want := []completion{
		{alreadyValid: true, digest: sha256.Sum256([]byte("<r/>"))},
		{inserted: 1, digest: sha256.Sum256([]byte("<r><y><x/></y></r>"))},
	}
	reply := func(edit func(*completeResponse)) []byte {
		resp := completeResponse{Results: []completeJSON{
			{ID: "a", Index: 0, Completed: true, AlreadyValid: true, Output: "<r/>"},
			{ID: "b", Index: 1, Completed: true, Inserted: 1, Output: "<r><y><x/></y></r>",
				Insertions: []diff.Insertion{{Path: "/r[0]", Index: 0, Name: "y"}}},
		}}
		if edit != nil {
			edit(&resp)
		}
		b, err := encodeReply(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkCompleteReply(reply(nil), docs, want); err != nil {
		t.Fatalf("a correct reply failed: %v", err)
	}
	bad := map[string]func(*completeResponse){
		"other output":      func(r *completeResponse) { r.Results[1].Output = "<r><x/><y/></r>" },
		"inserted miscount": func(r *completeResponse) { r.Results[1].Inserted = 2 },
		"no diff records":   func(r *completeResponse) { r.Results[1].Insertions = nil },
		"not completed": func(r *completeResponse) {
			r.Results[1].Completed, r.Results[1].Detail = false, "not potentially valid"
		},
		"already valid":  func(r *completeResponse) { r.Results[1].AlreadyValid = true },
		"missing result": func(r *completeResponse) { r.Results = r.Results[:1] },
	}
	for name, edit := range bad {
		if err := checkCompleteReply(reply(edit), docs, want); err == nil {
			t.Errorf("%s: reply accepted", name)
		}
	}
}

func TestCheckRawReply(t *testing.T) {
	valid := &doc{id: "r0", want: verdict{pv: true, valid: true}}
	pvOnly := &doc{id: "r1", want: verdict{pv: true}}
	for _, c := range []struct {
		body string
		want *doc
		ok   bool
	}{
		{`{"id":"r0","index":0,"potentiallyValid":true,"valid":false}`, valid, true},
		{`{"id":"r0","index":0,"potentiallyValid":true,"valid":true}`, valid, true},
		{`{"id":"r1","index":0,"potentiallyValid":true,"valid":true}`, pvOnly, false},
		{`{"id":"r0","index":0,"potentiallyValid":false,"valid":false,"detail":"x"}`, valid, false},
		{`{"id":"r9","index":0,"potentiallyValid":true,"valid":false}`, valid, false},
		{`{"index":0,"potentiallyValid":false,"valid":false,"error":"no root element"}`, valid, false},
	} {
		if err := checkRawReply([]byte(c.body), c.want); (err == nil) != c.ok {
			t.Errorf("checkRawReply(%s) = %v, want ok=%v", c.body, err, c.ok)
		}
	}
}

func TestCheckReceipt(t *testing.T) {
	var leaves []receipt.Leaf
	for _, d := range testDocs {
		leaves = append(leaves, receipt.Leaf{DocID: d.id, SchemaRef: "0123abcd", Verdict: d.want.wireVerdict(),
			ContentDigest: receipt.DigestContent([]byte(d.content))})
	}
	rec, err := buildReceipt(leaves)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(edit func(*engine.Receipt)) []byte {
		c := *rec
		c.Proofs = append([]engine.DocProof(nil), rec.Proofs...)
		if edit != nil {
			edit(&c)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkReceipt(encode(nil), rec.Root, leaves); err != nil {
		t.Fatalf("a correct receipt failed: %v", err)
	}
	other, err := buildReceipt(leaves[:2])
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*engine.Receipt){
		"other verdict":  func(r *engine.Receipt) { r.Proofs[1].Leaf.Verdict = engine.VerdictValid },
		"swapped proofs": func(r *engine.Receipt) { r.Proofs[0].Proof, r.Proofs[1].Proof = r.Proofs[1].Proof, r.Proofs[0].Proof },
		"other root":     func(r *engine.Receipt) { r.Root = other.Root },
		"root only":      func(r *engine.Receipt) { r.Proofs = nil },
	}
	for name, edit := range bad {
		if err := checkReceipt(encode(edit), rec.Root, leaves); err == nil {
			t.Errorf("%s: receipt accepted", name)
		}
	}
	if err := checkReceipt(encode(nil), other.Root, leaves); err == nil {
		t.Error("receipt accepted against another expected root")
	}
}
