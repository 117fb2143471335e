package engine

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/jobs"
	"repro/internal/receipt"
)

// Verifiable verdict receipts: a batch's verdicts are committed into a
// deterministic Merkle tree (internal/receipt) whose root is a compact,
// tamper-evident fingerprint of every (document, schema, verdict,
// insertion count, content digest) tuple the engine produced. A client —
// or an auditor holding only the root — verifies any single document's
// verdict offline with receipt.Verify(root, leaf, proof): no engine, no
// schema, no cache. Receipt emission is opt-in per call
// (CheckBatchReceipt / ?receipt=1); the plain batch paths are untouched.
// On a disk-backed engine every emitted root is also appended to an
// anchor log under <CacheDir>/receipts, so roots survive restarts and
// GET /receipts re-serves them byte-equal.

// DocProof is one document's entry in a Receipt: the leaf (the claim) and
// the inclusion proof binding it to the receipt's root.
type DocProof struct {
	// Index is the document's position in the submitted batch.
	Index int `json:"index"`
	// Leaf is the committed claim: document id, schema ref, verdict,
	// insertion count and content digest.
	Leaf receipt.Leaf `json:"leaf"`
	// Proof is the versioned inclusion-proof record ("pvp1:...").
	Proof string `json:"proof"`
}

// Receipt is a batch's verifiable verdict commitment: the Merkle root
// over all verdicts plus one inclusion proof per document. Verify any
// entry offline with receipt.Verify(Root, Proofs[i].Leaf, Proofs[i].Proof).
type Receipt struct {
	// Root is the versioned root record ("pvr1:<hex>") committing to every
	// leaf (and to the batch size).
	Root string `json:"root"`
	// Count is the number of documents the root commits to.
	Count int `json:"count"`
	// Kind is the workload that produced the batch ("check" or "complete").
	Kind string `json:"kind"`
	// Anchored reports whether the root was appended to the engine's anchor
	// log; Seq/Time are the anchor record's coordinates when it was.
	Anchored bool      `json:"anchored,omitempty"`
	Seq      int64     `json:"seq,omitempty"`
	Time     time.Time `json:"time,omitempty"`
	// Proofs holds one entry per document, in batch order. Absent on the
	// root-only form served for receipts recovered across a restart.
	Proofs []DocProof `json:"proofs,omitempty"`
}

// Verify checks every proof in the receipt against its root, returning
// the indices that fail (nil when the receipt is fully consistent). It is
// stateless: a receipt from anywhere can be checked with no engine state.
func (r *Receipt) Verify() []int {
	var bad []int
	for i := range r.Proofs {
		if !receipt.Verify(r.Root, r.Proofs[i].Leaf, r.Proofs[i].Proof) {
			bad = append(bad, r.Proofs[i].Index)
		}
	}
	return bad
}

// Verdict strings committed into check-path leaves.
const (
	// VerdictValid marks a fully valid document.
	VerdictValid = "valid"
	// VerdictPotentiallyValid marks a potentially valid (completable)
	// document that is not yet valid.
	VerdictPotentiallyValid = "potentially-valid"
	// VerdictNotPotentiallyValid marks a well-formed document no insertion
	// sequence can complete.
	VerdictNotPotentiallyValid = "not-potentially-valid"
	// VerdictMalformed marks a document that failed lexically.
	VerdictMalformed = "malformed"
	// VerdictRoutingError marks a document that never reached a schema.
	VerdictRoutingError = "routing-error"
	// VerdictCompleted marks a completion-path document that was completed.
	VerdictCompleted = "completed"
	// VerdictAlreadyValid marks a completion-path document that needed no
	// insertion.
	VerdictAlreadyValid = "already-valid"
)

// checkVerdict maps a check Result onto its committed verdict string.
func checkVerdict(r *Result) string {
	switch {
	case IsRoutingError(r.Err):
		return VerdictRoutingError
	case r.Err != nil:
		return VerdictMalformed
	case r.Valid:
		return VerdictValid
	case r.PotentiallyValid:
		return VerdictPotentiallyValid
	}
	return VerdictNotPotentiallyValid
}

// completeVerdict maps a CompleteResult onto its committed verdict string.
func completeVerdict(r *CompleteResult) string {
	switch {
	case IsRoutingError(r.Err):
		return VerdictRoutingError
	case r.Err != nil:
		return VerdictMalformed
	case r.AlreadyValid:
		return VerdictAlreadyValid
	case r.Completed:
		return VerdictCompleted
	}
	return VerdictNotPotentiallyValid
}

// docLeaf builds the committed leaf for one document: the schema it was
// routed by (its own ref, else the batch default's registry ref), the
// verdict, the insertion count and the content digest.
func docLeaf(d *Doc, def *Schema, verdict string, insertions int64) receipt.Leaf {
	ref := d.SchemaRef
	if ref == "" && def != nil {
		ref = def.Ref
	}
	return receipt.Leaf{
		DocID:         d.ID,
		SchemaRef:     ref,
		Verdict:       verdict,
		Insertions:    insertions,
		ContentDigest: receipt.DigestContent(d.data()),
	}
}

// anchorLog lazily opens the engine's anchor log under
// <CacheDir>/receipts; a memory-only engine (no CacheDir) anchors nothing
// and returns nil. The open error is sticky and surfaces on the first
// receipt build.
func (e *Engine) anchorLog() (*receipt.AnchorLog, error) {
	if e.cacheDir == "" {
		return nil, nil
	}
	e.anchorsOnce.Do(func() {
		e.anchors, e.anchorsErr = receipt.OpenAnchorLogFS(filepath.Join(e.cacheDir, "receipts"), e.fsys)
	})
	return e.anchors, e.anchorsErr
}

// Anchors lists every root the engine (and its predecessors on the same
// cache directory) anchored, oldest first. Memory-only engines return an
// empty list.
func (e *Engine) Anchors() ([]receipt.Anchor, error) {
	log, err := e.anchorLog()
	if err != nil || log == nil {
		return nil, err
	}
	return log.List()
}

// closeAnchors releases the anchor log, if one was opened.
func (e *Engine) closeAnchors() {
	e.anchorsOnce.Do(func() {}) // settle the lazy open
	if e.anchors != nil {
		_ = e.anchors.Close()
	}
}

// buildReceipt commits the batch's leaves: Merkle tree, root record, one
// proof per document (when withProofs), and an anchor-log append on
// disk-backed engines. batch names the async job for the anchor record
// ("" for synchronous calls). A zero-leaf batch has nothing to commit and
// returns nil.
func (e *Engine) buildReceipt(kind, batch string, leaves []receipt.Leaf, withProofs bool) (*Receipt, error) {
	if len(leaves) == 0 {
		return nil, nil
	}
	tree, err := receipt.Build(leaves)
	if err != nil {
		return nil, fmt.Errorf("engine: building receipt: %w", err)
	}
	rec := &Receipt{Root: tree.RootRecord(), Count: len(leaves), Kind: kind}
	if withProofs {
		rec.Proofs = make([]DocProof, len(leaves))
		for i := range leaves {
			p, perr := tree.Prove(i)
			if perr != nil {
				return nil, fmt.Errorf("engine: proving leaf %d: %w", i, perr)
			}
			rec.Proofs[i] = DocProof{Index: i, Leaf: leaves[i], Proof: p}
		}
	}
	e.receiptsBuilt.Add(1)
	log, err := e.anchorLog()
	if err != nil {
		return nil, fmt.Errorf("engine: opening anchor log: %w", err)
	}
	if log != nil {
		a, aerr := log.Append(receipt.Anchor{Kind: kind, Batch: batch, Leaves: len(leaves), Root: rec.Root})
		if aerr != nil {
			return nil, fmt.Errorf("engine: anchoring receipt root: %w", aerr)
		}
		rec.Anchored = true
		rec.Seq = a.Seq
		rec.Time = a.Time
		e.receiptsAnchored.Add(1)
	}
	return rec, nil
}

// CheckBatchReceipt is CheckBatch plus a verdict receipt: identical
// results and stats, and a Receipt committing every verdict to a Merkle
// root with one inclusion proof per document. The receipt is nil for an
// empty batch. Anchor-log failures surface as the error; the verdicts are
// still returned.
func (e *Engine) CheckBatchReceipt(s *Schema, docs []Doc) ([]Result, BatchStats, *Receipt, error) {
	results, stats := e.CheckBatch(s, docs)
	leaves := make([]receipt.Leaf, len(results))
	for i := range results {
		leaves[i] = docLeaf(&docs[i], s, checkVerdict(&results[i]), 0)
	}
	rec, err := e.buildReceipt("check", "", leaves, true)
	return results, stats, rec, err
}

// CompleteBatchReceipt is CompleteBatch plus a verdict receipt — the
// completion twin of CheckBatchReceipt; each leaf commits the completion
// verdict and the insertion count.
func (e *Engine) CompleteBatchReceipt(s *Schema, docs []Doc, withDiff bool) ([]CompleteResult, BatchStats, *Receipt, error) {
	results, stats := e.CompleteBatch(s, docs, withDiff)
	leaves := make([]receipt.Leaf, len(results))
	for i := range results {
		leaves[i] = docLeaf(&docs[i], s, completeVerdict(&results[i]), int64(results[i].Inserted))
	}
	rec, err := e.buildReceipt("complete", "", leaves, true)
	return results, stats, rec, err
}

// attachReceipt builds an async job's receipt over its committed leaves,
// anchored under the job's id, and attaches it to the job. A receipt that
// cannot be built or anchored is dropped rather than failing the job: the
// verdicts themselves are intact.
func (e *Engine) attachReceipt(j *jobs.Job, kind string, leaves []receipt.Leaf) {
	rec, err := e.buildReceipt(kind, j.ID(), leaves, true)
	if err != nil || rec == nil {
		return
	}
	j.SetReceipt(rec.Root, appendReceipt(make([]byte, 0, receiptSize(rec)), rec))
}
