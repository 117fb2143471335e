package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/receipt"
)

// Reply shapes, mirroring the wire forms in docs/http-api.md. The
// checkers compare meaning, not bytes: formatting, field order and detail
// wording may change without a reply counting as wrong.
type resultJSON struct {
	ID               string `json:"id,omitempty"`
	Index            int    `json:"index"`
	PotentiallyValid bool   `json:"potentiallyValid"`
	Valid            bool   `json:"valid"`
	Detail           string `json:"detail,omitempty"`
	Error            string `json:"error,omitempty"`
}

type completeJSON struct {
	ID           string           `json:"id,omitempty"`
	Index        int              `json:"index"`
	Completed    bool             `json:"completed"`
	AlreadyValid bool             `json:"alreadyValid,omitempty"`
	Inserted     int              `json:"inserted"`
	Insertions   []diff.Insertion `json:"insertions,omitempty"`
	Output       string           `json:"output,omitempty"`
	Detail       string           `json:"detail,omitempty"`
	Error        string           `json:"error,omitempty"`
}

type completeResponse struct {
	Results []completeJSON    `json:"results"`
	Stats   engine.BatchStats `json:"stats"`
	Receipt *engine.Receipt   `json:"receipt,omitempty"`
}

// checkResult compares one verdict line with the expected document.
func checkResult(got *resultJSON, index int, want *doc) error {
	switch {
	case got.Error != "":
		return fmt.Errorf("document %s: error %q", want.id, got.Error)
	case got.Index != index || got.ID != want.id:
		return fmt.Errorf("result %d is for document %q at index %d, want %q", index, got.ID, got.Index, want.id)
	case got.PotentiallyValid != want.want.pv || got.Valid != want.want.valid:
		return fmt.Errorf("document %s: got pv=%v valid=%v, want pv=%v valid=%v",
			want.id, got.PotentiallyValid, got.Valid, want.want.pv, want.want.valid)
	}
	return nil
}

// splitLines returns the non-empty lines of an NDJSON body.
func splitLines(body []byte) [][]byte {
	var out [][]byte
	for _, ln := range bytes.Split(body, []byte{'\n'}) {
		if len(bytes.TrimSpace(ln)) > 0 {
			out = append(out, ln)
		}
	}
	return out
}

// checkVerdictLines compares NDJSON verdict lines, one per document in
// input order, with the expected documents.
func checkVerdictLines(lines [][]byte, want []doc) error {
	if len(lines) != len(want) {
		return fmt.Errorf("%d verdict lines for %d documents", len(lines), len(want))
	}
	for i, ln := range lines {
		var got resultJSON
		if err := json.Unmarshal(ln, &got); err != nil {
			return fmt.Errorf("verdict line %d: %w", i, err)
		}
		if err := checkResult(&got, i, &want[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkStreamReply verifies a POST /check/stream reply: one verdict line
// per document in input order, then a closing stats line that counts them.
func checkStreamReply(body []byte, want []doc) error {
	lines := splitLines(body)
	if len(lines) == 0 {
		return fmt.Errorf("empty stream reply")
	}
	var tail struct {
		Stats *engine.BatchStats `json:"stats"`
		Error string             `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil {
		return fmt.Errorf("closing line: %w", err)
	}
	if tail.Stats == nil {
		return fmt.Errorf("stream did not close with a stats line (error %q)", tail.Error)
	}
	if tail.Stats.Docs != len(want) {
		return fmt.Errorf("stats line counts %d documents, want %d", tail.Stats.Docs, len(want))
	}
	return checkVerdictLines(lines[:len(lines)-1], want)
}

// checkCompleteReply verifies a POST /complete reply with diff on: every
// document completed, with the expected inserted count, one insertion
// record per inserted element, and the expected output.
func checkCompleteReply(body []byte, docs []doc, want []completion) error {
	var got completeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("complete reply: %w", err)
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("%d completion results for %d documents", len(got.Results), len(want))
	}
	for i := range got.Results {
		g, w := &got.Results[i], &want[i]
		switch {
		case g.Error != "" || g.Detail != "":
			return fmt.Errorf("document %s: not completed: %s%s", docs[i].id, g.Error, g.Detail)
		case g.Index != i || g.ID != docs[i].id:
			return fmt.Errorf("result %d is for document %q at index %d, want %q", i, g.ID, g.Index, docs[i].id)
		case !g.Completed || g.AlreadyValid != w.alreadyValid:
			return fmt.Errorf("document %s: completed=%v alreadyValid=%v, want true/%v", docs[i].id, g.Completed, g.AlreadyValid, w.alreadyValid)
		case g.Inserted != w.inserted || len(g.Insertions) != w.inserted:
			return fmt.Errorf("document %s: inserted=%d with %d records, want %d", docs[i].id, g.Inserted, len(g.Insertions), w.inserted)
		case sha256.Sum256([]byte(g.Output)) != w.digest:
			return fmt.Errorf("document %s: completed output differs from the library's", docs[i].id)
		}
	}
	return nil
}

// checkRawReply verifies a POST /check/raw reply. The route settles
// potential validity; its valid bit may be false (no tree pass) but never
// claims validity the document lacks.
func checkRawReply(body []byte, want *doc) error {
	var got resultJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("raw reply: %w", err)
	}
	switch {
	case got.Error != "":
		return fmt.Errorf("document %s: error %q", want.id, got.Error)
	case got.ID != want.id:
		return fmt.Errorf("reply is for document %q, want %q", got.ID, want.id)
	case got.PotentiallyValid != want.want.pv:
		return fmt.Errorf("document %s: got pv=%v, want %v", want.id, got.PotentiallyValid, want.want.pv)
	case got.Valid && !want.want.valid:
		return fmt.Errorf("document %s: claims valid, but it is not", want.id)
	}
	return nil
}

// checkReceipt verifies a job's verdict receipt: the expected root over
// the expected leaves, and every inclusion proof verified offline.
func checkReceipt(body []byte, root string, leaves []receipt.Leaf) error {
	var got engine.Receipt
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("receipt: %w", err)
	}
	if got.Root != root || got.Count != len(leaves) {
		return fmt.Errorf("receipt root %q over %d leaves, want %q over %d", got.Root, got.Count, root, len(leaves))
	}
	if len(got.Proofs) != len(leaves) {
		return fmt.Errorf("receipt carries %d proofs for %d documents", len(got.Proofs), len(leaves))
	}
	for i := range got.Proofs {
		p := &got.Proofs[i]
		if p.Index != i || p.Leaf != leaves[i] {
			return fmt.Errorf("proof %d commits %+v at index %d, want %+v", i, p.Leaf, p.Index, leaves[i])
		}
		if !receipt.Verify(root, p.Leaf, p.Proof) {
			return fmt.Errorf("proof %d does not verify against the root", i)
		}
	}
	return nil
}
