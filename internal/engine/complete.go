package engine

import (
	"time"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
)

// The completion path is the engine's second workload: instead of a boolean
// verdict, each potentially valid document is rewritten into a valid one
// (the paper's Definition 3, constructively) and the insertions come back
// as a structured diff. It shares the registry, the SchemaRef routing and
// the worker-pool discipline of the checking path; completers are pooled
// per schema exactly like stream checkers, because a Completer memoizes
// per-schema state (automata, minimal instances) that is expensive to
// rebuild and unsafe to share across goroutines.

// CompleteResult is the outcome of one document completion. Err is set for
// lexical/well-formedness or routing problems (no verdict); Detail is set
// when the document is not potentially valid (completion is impossible);
// otherwise Completed is true, Output holds the completed document — the
// input with the inserted tags spliced in, every input byte kept — and
// Inserted counts the elements added (zero for an already-valid input,
// whose Output is the input itself).
type CompleteResult struct {
	ID           string
	Index        int
	Completed    bool
	AlreadyValid bool
	Inserted     int
	Insertions   []diff.Insertion
	Output       string
	Detail       string
	Err          error
	Bytes        int
}

// tallyResult maps a completion outcome onto the verdict accounting shared
// with the checking path: a completable document is by definition
// potentially valid; an already-valid one counts as valid too.
func (r *CompleteResult) tallyResult() Result {
	return Result{
		ID:               r.ID,
		Index:            r.Index,
		PotentiallyValid: r.Completed,
		Valid:            r.AlreadyValid,
		Detail:           r.Detail,
		Err:              r.Err,
		Bytes:            r.Bytes,
	}
}

// Completer fetches a pooled completer for the schema. Completers memoize
// per-schema state (automata, minimal instances) that is expensive to
// rebuild and unsafe to share across goroutines; return the completer
// with PutCompleter when done. The root-package API reuses this pool so
// warm completers survive registry cache hits.
func (s *Schema) Completer() *complete.Completer {
	return s.completers.Get().(*complete.Completer)
}

// PutCompleter returns a completer obtained from Completer to the pool.
func (s *Schema) PutCompleter(c *complete.Completer) { s.completers.Put(c) }

// Checker fetches a pooled stream checker for the schema; return it with
// PutChecker when done. The engine's workers and the root-package checks
// share this pool.
func (s *Schema) Checker() *core.StreamChecker { return s.checkers.Get().(*core.StreamChecker) }

// PutChecker returns a checker obtained from Checker to the pool.
func (s *Schema) PutChecker(c *core.StreamChecker) { s.checkers.Put(c) }

// completeOne runs one completion on a pooled completer, over the
// document's bytes (complete.Completer.CompleteBytes): no tree is built.
// An already-valid document comes back as itself with zero insertions,
// and the rest go through the completion DP. withDiff controls whether
// insertion records are computed.
func (e *Engine) completeOne(c *complete.Completer, d Doc, withDiff bool) CompleteResult {
	src := d.data()
	res := CompleteResult{ID: d.ID, Bytes: len(src)}
	out, err := c.CompleteBytes(src, withDiff)
	if err != nil {
		if core.IsViolation(err) {
			res.Detail = err.Error()
		} else {
			res.Err = err
		}
		return res
	}
	res.Completed = true
	res.AlreadyValid = out.AlreadyValid
	res.Inserted = out.Inserted
	res.Insertions = out.Insertions
	if out.AlreadyValid && d.Bytes == nil {
		res.Output = d.Content // the input is the output: no copy
	} else {
		res.Output = string(out.Output)
	}
	return res
}

// Complete runs one document's completion synchronously on the caller's
// goroutine (counting against the engine-wide worker bound). s may be nil
// when the document carries a SchemaRef. withDiff asks for per-insertion
// records in addition to the completed output.
func (e *Engine) Complete(s *Schema, d Doc, withDiff bool) CompleteResult {
	if d.SchemaRef != "" {
		rs, err := e.store.ResolveRef(d.SchemaRef)
		if err != nil {
			res := CompleteResult{ID: d.ID, Bytes: d.Size(), Err: err}
			e.accountComplete(&res)
			return res
		}
		s = rs
	}
	if s == nil {
		res := CompleteResult{ID: d.ID, Bytes: d.Size(), Err: errNoSchema}
		e.accountComplete(&res)
		return res
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	c := s.Completer()
	res := e.completeOne(c, d, withDiff)
	s.PutCompleter(c)
	e.accountComplete(&res)
	return res
}

// CompleteBatch fans docs out over the engine's worker pool and returns one
// CompleteResult per input, in input order, plus aggregate stats. The
// concurrency shape is CheckBatch's (the shared runBatch core): an atomic
// cursor hands out documents (work stealing), results land in disjoint
// slots, and each worker keeps one pooled completer per schema it
// encounters. Documents carrying a SchemaRef route to the referenced
// registry-cached schema; s covers the rest and may be nil when every
// document routes itself. Outputs and inserted counts are identical to
// sequential per-document completion (the differential tests pin this).
func (e *Engine) CompleteBatch(s *Schema, docs []Doc, withDiff bool) ([]CompleteResult, BatchStats) {
	start := time.Now()
	results, workers := runBatch(e, s, docs,
		func(sc *Schema) *complete.Completer { return sc.Completer() },
		func(sc *Schema, c *complete.Completer) { sc.PutCompleter(c) },
		func(_ *Schema, c *complete.Completer, d Doc) CompleteResult {
			return e.completeOne(c, d, withDiff)
		},
		func(d *Doc, err error) CompleteResult { return CompleteResult{ID: d.ID, Bytes: d.Size(), Err: err} },
	)
	stats := BatchStats{Docs: len(docs), Workers: workers}
	for i := range results {
		results[i].Index = i
		r := results[i].tallyResult()
		stats.tally(&r)
		stats.Inserted += int64(results[i].Inserted)
	}
	e.finishBatch(&stats, start)
	return results, stats
}

// accountComplete folds one synchronous completion into the lifetime
// counters.
func (e *Engine) accountComplete(r *CompleteResult) {
	bs := BatchStats{Docs: 1, Inserted: int64(r.Inserted)}
	tr := r.tallyResult()
	bs.tally(&tr)
	e.accountBatch(bs)
}
