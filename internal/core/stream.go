package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/contentmodel"
	"repro/internal/dfa"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/xmltext"
)

// ViolationError is a potential-validity violation reported by the stream
// checker: the input is well-formed XML so far, but its content cannot be
// extended to a valid document. Lexical and well-formedness problems
// (mismatched or unclosed tags, multiple roots, character data outside the
// root) are reported as plain errors instead, mirroring the tree path where
// dom.Parse rejects them before CheckDocument ever runs. Callers that need
// to tell the two apart (the concurrent engine, differential tests) use
// IsViolation.
type ViolationError struct{ Reason string }

// Error implements the error interface with the violation's reason.
func (e *ViolationError) Error() string { return e.Reason }

// IsViolation reports whether err is a potential-validity violation, as
// opposed to a lexical or well-formedness error.
func IsViolation(err error) bool {
	var v *ViolationError
	return errors.As(err, &v)
}

// frame is one open element of the stream checker. An element starts on
// its content model's DFA lane (mach + state) and buffers its child
// symbols in the checker's shared prefix arena; the first symbol the DFA
// cannot take lazily spawns the PV recognizer (rec), which replays the
// buffered prefix and takes over for the rest of that element's content.
// Ancestors keep their own lanes either way. The DFA state doubles as the
// element's validity lane and keeps stepping on child elements after a
// fallback; an element without a DFA validates on a Glushkov position set
// (auto) instead.
type frame struct {
	rec         *Recognizer             // nil while the element is on its DFA lane
	mach        *dfa.Machine            // nil when the element has no DFA
	auto        *contentmodel.Automaton // position-set lane of a Children or Mixed element without a DFA
	name        string
	id          int32 // interned symbol ID of the element
	state       int32 // current DFA state
	prefixStart int32 // start of this frame's slice of the prefix arena
	posStart    int32 // start of this frame's position set in the positions arena
	lastWasText bool  // collapses adjacent text events into one σ per δ_T
}

// StreamChecker checks whole-document potential validity in one pass over a
// token stream — the incremental formulation the paper recommends ("we can
// solve the potential validity problem incrementally, for each document
// node, by considering only node's children", Section 4). It is equivalent
// to CheckDocument, which stays as its test oracle; the engine, the
// library, completion and the editor all decide on it (RunBytes,
// RunReader, RunTree).
//
// Checking is two-tier: per open element the compiled content-model DFA
// (internal/dfa) settles each child symbol with one table load and zero
// allocations; the paper's ECRecognizer (Figure 5) — the machinery that
// can hypothesize inserted elements — runs only from the first symbol the
// DFA cannot take. A DFA-viable prefix is always completable, so the
// switch can never change a verdict, only defer the expensive sweep to
// the residue that needs it. The per-element buffered prefix holds
// interned symbol IDs only, adding O(children on the open path) memory to
// the checker's O(depth) frame stack.
//
// The same pass decides full validity exactly, with validator.Validate's
// rules applied per event: the root must be the schema root, each child
// element must step its parent's content-model automaton, an element may
// close only in an accepting state, and text is allowed in EMPTY content
// never and in element content only as whitespace. This is the classic
// O(depth) streaming validation of DTDs; the validator stays as its test
// oracle.
type StreamChecker struct {
	schema *Schema
	frames []frame
	depth  int
	err    error
	seen   bool // a root element has been seen and closed
	// valid is the exact validity bit: false once an event breaks a
	// validity rule, after which no validity lane is stepped.
	valid bool
	// prefix is the shared arena of buffered child-symbol IDs for frames
	// still on their DFA lane; each frame owns prefix[f.prefixStart:] up
	// to the next frame's start, and EndElement truncates its slice.
	prefix []int32
	// positions is the arena of position sets for frames on a
	// position-set lane, owned the same way from f.posStart; step is the
	// scratch set one step builds before it replaces the top frame's.
	positions []int
	step      []int
	// fastHits / fastFallbacks count elements fully settled on the DFA
	// lane vs elements that fell back to a recognizer, since Reset.
	fastHits      int64
	fastFallbacks int64
	// forceFallbackAt >= 0 abandons a frame's DFA lane as soon as that
	// frame has buffered this many symbols — a test/bench knob that
	// exercises the replay path; -1 (the default) disables it.
	forceFallbackAt int
	// free recycles per-element recognizers (with their arenas and visited
	// scratch) popped by EndElement, so a pooled checker's steady state
	// creates no recognizer state at all for repeated element kinds.
	free []*Recognizer
	// lx lexes in-memory documents and clx, created on first RunReader,
	// streams io.Readers through its sliding window; pooled checkers reuse
	// both across documents.
	lx  xmltext.ByteLexer
	clx *xmltext.ChunkedLexer
	// hideSpace is IgnoreWhitespaceText for ValidTree's and ValidBytes'
	// runs only.
	hideSpace bool
}

// NewStreamChecker returns a fresh streaming checker.
func (s *Schema) NewStreamChecker() *StreamChecker {
	return &StreamChecker{schema: s, forceFallbackAt: -1}
}

// Err returns the first violation encountered, or nil.
func (c *StreamChecker) Err() error { return c.err }

// Depth returns the current open-element depth.
func (c *StreamChecker) Depth() int { return c.depth }

// Reset returns the checker to its initial state for a fresh document,
// retaining allocated stack capacity — the hook that lets worker pools
// (engine.CheckBatch) reuse checkers across many documents.
func (c *StreamChecker) Reset() {
	// Clear through capacity, not length: EndElement pops truncate without
	// clearing, so after a completed document the Recognizers (and name
	// strings, which alias the schema) linger beyond len.
	clear(c.frames[:cap(c.frames)])
	c.frames = c.frames[:0]
	c.prefix = c.prefix[:0]
	c.positions = c.positions[:0]
	c.depth = 0
	c.err = nil
	c.seen = false
	c.valid = true
	c.fastHits = 0
	c.fastFallbacks = 0
}

// ForceFallbackAfter makes every element abandon its DFA lane once it has
// buffered n child symbols (n=0: before the first symbol), exercising the
// recognizer replay path regardless of what the DFA would accept. A
// negative n restores normal two-tier dispatch. Verdicts are identical in
// every mode — the differential fuzz target pins this.
func (c *StreamChecker) ForceFallbackAfter(n int) { c.forceFallbackAt = n }

// FastPathStats returns the number of elements fully settled on the DFA
// fast path and the number that fell back to a PV recognizer since the
// last Reset.
func (c *StreamChecker) FastPathStats() (hits, fallbacks int64) {
	return c.fastHits, c.fastFallbacks
}

// StrictlyValid reports whether the last run's document is valid: true
// exactly when it is potentially valid and validator.Validate accepts its
// tree, false when it is invalid or the run ended with an error.
func (c *StreamChecker) StrictlyValid() bool { return c.err == nil && c.seen && c.valid }

// fail records a well-formedness failure.
func (c *StreamChecker) fail(format string, args ...any) error {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return c.err
}

// violate records a potential-validity violation.
func (c *StreamChecker) violate(format string, args ...any) error {
	if c.err == nil {
		c.err = &ViolationError{Reason: fmt.Sprintf(format, args...)}
	}
	return c.err
}

// StartElement processes a start tag. The name is resolved through the
// schema's name table (SymbolID) without materializing a string
// (undeclared names only surface inside the violation message).
func (c *StreamChecker) StartElement(name []byte) error {
	if c.err != nil {
		return c.err
	}
	if len(c.frames) == 0 {
		if c.seen {
			return c.fail("second root element <%s>", name)
		}
		if !c.schema.opts.AllowAnyRoot && string(name) != c.schema.Root {
			return c.violate("root element is <%s>, schema requires <%s>", name, c.schema.Root)
		}
	}
	id := c.schema.SymbolID(name)
	if id == 0 {
		return c.violate("element <%s> is not declared in the DTD", name)
	}
	// Use the schema's own copy of the name from here on: the lexed name
	// aliases the document, and anything the checker retains (open-element
	// names, recognizer elements — including freelisted recognizers that
	// outlive Reset) must not pin the document buffer.
	elem := c.schema.symNames[id]
	if len(c.frames) > 0 {
		if !c.feedTop(id) {
			return c.violate("content of <%s> is not potentially valid at <%s>", c.frames[len(c.frames)-1].name, elem)
		}
		c.frames[len(c.frames)-1].lastWasText = false
	} else if elem != c.schema.Root {
		c.valid = false // AllowAnyRoot relaxes potential validity only
	}
	f := frame{name: elem, id: id, prefixStart: int32(len(c.prefix)), posStart: int32(len(c.positions))}
	if f.mach = c.schema.fastMachine(id); f.mach == nil {
		f.rec = c.newRecognizer(elem)
		if f.auto = c.schema.lanes[id]; f.auto != nil {
			c.positions = append(c.positions, 0) // the start position
		}
	}
	c.frames = append(c.frames, f)
	c.depth++
	return nil
}

// maxBufferedChildren caps how many child symbols one frame may buffer on
// its DFA lane. An element exceeding the cap falls back to its recognizer
// (O(1) state per element), so the checker's extra memory is a constant
// per open element and the reader path keeps its O(depth + window) bound
// even over pathologically flat documents.
const maxBufferedChildren = 1024

// feedTop advances the innermost open element by one child symbol. While
// the frame is on its DFA lane this is one table load; the first symbol
// the DFA cannot take (or the forced-fallback knob, or the buffering cap)
// switches the frame to a PV recognizer via fallback, and from then on a
// child element also steps the validity lane. Returns whether the symbol
// keeps the element's content potentially valid.
func (c *StreamChecker) feedTop(sym int32) bool {
	f := &c.frames[len(c.frames)-1]
	if f.rec == nil {
		buffered := int32(len(c.prefix)) - f.prefixStart
		forced := c.forceFallbackAt >= 0 && buffered >= int32(c.forceFallbackAt)
		if !forced && buffered < maxBufferedChildren {
			if next := f.mach.Step(f.state, sym); next != dfa.Dead {
				f.state = next
				c.prefix = append(c.prefix, sym)
				return true
			}
		}
		c.fallback(f)
	}
	if sym != 0 && c.valid {
		c.stepValid(f, sym)
	}
	return f.rec.Validate(c.schema.symbolOf(sym))
}

// stepValid advances f's validity lane by the child element sym: its DFA,
// or else its position set (ANY needs no lane). Text never steps a lane:
// Children models cannot contain #PCDATA, and in Mixed models σ only
// loops, so Text decides text alone. A dead step makes the document
// invalid.
func (c *StreamChecker) stepValid(f *frame, sym int32) {
	switch {
	case f.mach != nil:
		f.state = f.mach.Step(f.state, sym)
		c.valid = f.state != dfa.Dead
	case f.auto != nil:
		c.step = f.auto.Step(c.step, c.positions[f.posStart:], c.schema.symNames[sym])
		c.positions = append(c.positions[:f.posStart], c.step...)
		c.valid = len(c.step) > 0
	}
}

// fallback moves f's potential-validity check off its DFA lane: it spawns
// the element's recognizer and replays the buffered child-symbol prefix
// into it. A DFA-viable prefix is a viable prefix of the exact content
// language, hence completable, hence potentially valid — so the replay
// cannot reject; the differential fuzz target (FuzzDFAVsRecognizer) pins
// that invariant. The DFA state stays as the validity lane.
func (c *StreamChecker) fallback(f *frame) {
	rec := c.newRecognizer(f.name)
	for _, id := range c.prefix[f.prefixStart:] {
		rec.Validate(c.schema.symbolOf(id))
	}
	c.prefix = c.prefix[:f.prefixStart]
	f.rec = rec
	c.fastFallbacks++
}

// newRecognizer takes a recognizer from the checker's freelist, falling
// back to a fresh one.
func (c *StreamChecker) newRecognizer(name string) *Recognizer {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		r.reinit(c.schema, name, c.schema.depth)
		return r
	}
	return c.schema.NewRecognizer(name)
}

// Text processes a character-data event. Empty text is invisible, and so
// is whitespace with IgnoreWhitespaceText except inside an EMPTY element;
// adjacent text events collapse into one σ. The data is only inspected,
// never retained or converted.
func (c *StreamChecker) Text(data []byte) error {
	if c.err != nil {
		return c.err
	}
	// Validity sees every nonempty text, before the σ collapse and before
	// IgnoreWhitespaceText hides it: EMPTY content admits none, element
	// content only whitespace. Empty text makes no tree node. EMPTY
	// content keeps even whitespace in the potential-validity feed, since
	// no insertion can make text there valid.
	hide := c.schema.opts.IgnoreWhitespaceText || c.hideSpace
	if n := len(c.frames); n > 0 && len(data) > 0 {
		switch c.schema.cats[c.frames[n-1].id] {
		case dtd.Empty:
			c.valid, hide = false, false
		case dtd.Children:
			c.valid = c.valid && isSpace(data)
		}
	}
	if len(data) == 0 || (hide && isSpace(data)) {
		return nil
	}
	if len(c.frames) == 0 {
		if isSpace(data) {
			return nil
		}
		return c.fail("character data outside the root element")
	}
	f := &c.frames[len(c.frames)-1]
	if f.lastWasText {
		return nil // same σ as the previous text event
	}
	if !c.feedTop(0) {
		return c.violate("content of <%s> is not potentially valid at character data", f.name)
	}
	f.lastWasText = true
	return nil
}

// EndElement processes an end tag; the open-tag comparison is an
// allocation-free string/byte equality check.
func (c *StreamChecker) EndElement(name []byte) error {
	if c.err != nil {
		return c.err
	}
	if len(c.frames) == 0 {
		return c.fail("unexpected end tag </%s>", name)
	}
	i := len(c.frames) - 1
	f := &c.frames[i]
	if f.name != string(name) {
		return c.fail("end tag </%s> does not match open <%s>", name, f.name)
	}
	// Closing never violates potential validity: PV allows completing the
	// content with hypothesized elements after the close. Validity needs
	// the content as written to be a complete word of the model: an
	// accepting state of the element's lane.
	if c.valid {
		switch {
		case f.mach != nil:
			c.valid = f.mach.Accepting(f.state)
		case f.auto != nil:
			c.valid = f.auto.Accepts(c.positions[f.posStart:])
		}
	}
	if f.rec == nil {
		c.fastHits++
		c.prefix = c.prefix[:f.prefixStart]
	} else {
		c.free = append(c.free, f.rec)
	}
	c.positions = c.positions[:f.posStart]
	c.frames = c.frames[:i]
	c.depth--
	if len(c.frames) == 0 {
		c.seen = true
	}
	return nil
}

// Close verifies that the document ended properly (all elements closed,
// exactly one root seen) and returns the final verdict.
func (c *StreamChecker) Close() error {
	if c.err != nil {
		return c.err
	}
	if len(c.frames) > 0 {
		return c.fail("unclosed element <%s>", c.frames[len(c.frames)-1].name)
	}
	if !c.seen {
		return c.fail("no root element")
	}
	return nil
}

// CheckStream runs the streaming check over a string document: a
// single-pass Problem PV solver, reading src in place through
// xmltext.View.
func (s *Schema) CheckStream(src string) error { return s.NewStreamChecker().Run(src) }

// Run is RunBytes over a string document, read in place through
// xmltext.View.
func (c *StreamChecker) Run(src string) error { return c.RunBytes(xmltext.View(src)) }

// RunBytes resets the checker and drives it over src in one pass. It
// returns nil when the document is potentially valid, a *ViolationError
// when it is well-formed but not potentially valid, and a plain error for
// lexical or well-formedness problems. The lexer lives on the checker and
// tokens are consumed in place, so a pooled checker checks a potentially
// valid entity-free document with no allocation.
func (c *StreamChecker) RunBytes(src []byte) error {
	c.lx.Reset(src)
	err := c.run(&c.lx)
	c.lx.Reset(nil) // a pooled checker must not pin the document
	return err
}

// RunTree resets the checker and drives it over the tree rooted at root in
// document order: an element sends its start tag, children and end tag, a
// text node its data, comments and PIs nothing. Verdict, message and
// validity bit are RunBytes' over the tree's serialization, also for
// adjacent or empty text nodes (adjacent text folds into one σ, empty text
// is ignored). A non-element root reads as a missing root element.
func (c *StreamChecker) RunTree(root *dom.Node) error {
	c.Reset()
	c.walk(root)
	return c.Close()
}

// ValidTree reports validator.Validate's verdict on the tree, also where
// RunTree finds it not potentially valid because whitespace-only text in
// element content, which validity ignores, reads as σ. It is RunTree with
// that text hidden from the potential-validity feed but not from the
// validity lane, which decides.
func (c *StreamChecker) ValidTree(root *dom.Node) bool {
	c.hideSpace = true
	c.RunTree(root)
	c.hideSpace = false
	return c.StrictlyValid()
}

// ValidBytes is ValidTree over the bytes of a well-formed document: the
// validator's verdict, also where RunBytes finds src not potentially
// valid only because whitespace-only text in element content reads as σ.
func (c *StreamChecker) ValidBytes(src []byte) bool {
	c.hideSpace = true
	c.RunBytes(src)
	c.hideSpace = false
	return c.StrictlyValid()
}

// walk sends n's events. Each event records its error in c.err, which
// Close returns, so walk only has to stop at the first one.
func (c *StreamChecker) walk(n *dom.Node) {
	switch n.Kind {
	case dom.TextNode:
		c.Text(xmltext.View(n.Data))
	case dom.ElementNode:
		c.StartElement(xmltext.View(n.Name))
		for _, ch := range n.Children {
			if c.err != nil {
				return
			}
			c.walk(ch)
		}
		c.EndElement(xmltext.View(n.Name))
	}
}

// RunReader is RunBytes over an io.Reader: the document is lexed through a
// sliding window (xmltext.ChunkedLexer) and never held in memory, so peak
// usage is O(element depth + buffered child symbols on the open path +
// window), independent of document size — the external-memory streaming
// formulation. Verdicts and error messages are identical to RunBytes over
// the same bytes, and StrictlyValid gives the full-validity bit as it
// does after RunBytes.
func (c *StreamChecker) RunReader(r io.Reader) error {
	return c.RunReaderBuffer(r, 0)
}

// RunReaderBuffer is RunReader with an explicit window size in bytes
// (xmltext.DefaultChunkSize if bufSize <= 0). The window is retained on the
// checker across runs; a run asking for a larger window than the retained
// one re-allocates it once.
func (c *StreamChecker) RunReaderBuffer(r io.Reader, bufSize int) error {
	if c.clx == nil || (bufSize > 0 && c.clx.BufSize() < bufSize) {
		c.clx = xmltext.NewChunkedLexer(r, bufSize)
	} else {
		c.clx.Reset(r)
	}
	err := c.run(c.clx)
	c.clx.Reset(nil)
	return err
}

// tokenSource is what the token loop lexes from: a ByteLexer over a whole
// document or a ChunkedLexer over a reader.
type tokenSource interface {
	Next() (*xmltext.ByteToken, error)
}

// run resets the checker and feeds it every token of src.
func (c *StreamChecker) run(src tokenSource) error {
	c.Reset()
	for {
		tok, err := src.Next()
		if err != nil {
			return err
		}
		if tok == nil {
			return c.Close()
		}
		switch tok.Kind {
		case xmltext.StartTag:
			err = c.StartElement(tok.Name)
		case xmltext.EndTag:
			err = c.EndElement(tok.Name)
		case xmltext.Text:
			err = c.Text(tok.Data)
		}
		if err != nil {
			return err
		}
	}
}

// isSpace reports whether the text is entirely XML whitespace; shared by
// the text event and by Δ_T via isWhitespace.
func isSpace[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
