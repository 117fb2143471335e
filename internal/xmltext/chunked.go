// Bounded-memory streaming front-end for the zero-copy byte lexer.
// ChunkedLexer reads an io.Reader into a fixed sliding window and drives a
// ByteLexer in streaming mode over it: when the window ends mid-token the
// inner lexer reports errNeedMore, the unconsumed tail is slid to the front
// of the buffer, more input is appended, and the token is re-lexed. In the
// steady state tokens remain zero-copy subslices of the window; only the
// rare token that outgrows the window forces the buffer to grow (doubling,
// so re-lexing a giant token stays amortized linear). Memory is therefore
// O(buffer + largest single token), never O(document) — the property
// core.StreamChecker.RunReader and the /check/raw route build on.
package xmltext

import (
	"errors"
	"io"
)

// DefaultChunkSize is the sliding-window size ChunkedLexer uses when the
// caller does not choose one. Large enough that refill bookkeeping is noise
// against lexing (servebench's xmltext.chunked_lex_ns_per_byte probe lexes
// at this window), small enough to keep per-stream memory trivial.
const DefaultChunkSize = 256 << 10

// ChunkedLexer lexes an XML document streamed from an io.Reader in bounded
// memory. Token byte slices are valid only until the next call to Next —
// a refill may slide the window they point into.
type ChunkedLexer struct {
	r     io.Reader
	inner ByteLexer
	buf   []byte
	n     int   // bytes of buf holding the current window
	base  int64 // global offset of buf[0] within the stream
	eof   bool  // r is exhausted; the window holds the document's tail
}

// NewChunkedLexer returns a lexer that reads src through a sliding window of
// bufSize bytes (DefaultChunkSize if bufSize <= 0).
func NewChunkedLexer(src io.Reader, bufSize int) *ChunkedLexer {
	if bufSize <= 0 {
		bufSize = DefaultChunkSize
	}
	cl := &ChunkedLexer{buf: make([]byte, bufSize)}
	cl.Reset(src)
	return cl
}

// Reset rewinds the lexer onto a new stream, retaining its window buffer —
// the hook that lets checker pools stream many documents without
// re-allocating the window.
func (cl *ChunkedLexer) Reset(src io.Reader) {
	cl.r = src
	cl.n = 0
	cl.base = 0
	cl.eof = false
	cl.inner = ByteLexer{line: 1, streaming: true,
		attrs: cl.inner.attrs, scratch: cl.inner.scratch}
}

// BufSize returns the current window size (it grows only when a single
// token exceeded it).
func (cl *ChunkedLexer) BufSize() int { return len(cl.buf) }

// Next returns the next token, or (nil, nil) at end of input. Errors are
// either *SyntaxError values identical (message and global position) to
// what the whole-buffer ByteLexer would produce, or errors from the
// underlying reader.
func (cl *ChunkedLexer) Next() (*ByteToken, error) {
	for {
		// Count lines up to the consumed point and snapshot it: on a
		// mid-token window end the failed attempt is rolled back to here and
		// retried after a refill.
		cp := cl.inner.pos
		cl.inner.countLines(cp)
		line, lineStart := cl.inner.line, cl.inner.lineStart
		tok, err := cl.inner.Next()
		if err == errNeedMore || (err == nil && tok == nil && !cl.eof) {
			if rerr := cl.refill(cp); rerr != nil {
				return nil, rerr
			}
			// refill slid the consumed point to the front of the window.
			cl.inner.src = cl.buf[:cl.n]
			cl.inner.pos = 0
			cl.inner.line, cl.inner.lineStart = line, lineStart-cp
			cl.inner.nextNL = cl.inner.newlineFrom(0)
			continue
		}
		if err != nil {
			// Inner positions are window-relative; lift to the stream.
			var se *SyntaxError
			if errors.As(err, &se) {
				se.Pos.Offset += int(cl.base)
			}
			return nil, err
		}
		if tok == nil {
			return nil, nil
		}
		tok.Pos.Offset += int(cl.base)
		tok.End += int(cl.base)
		return tok, nil
	}
}

// refill discards the cp consumed bytes at the front of the window, slides
// the unconsumed tail down, and reads until the window is full or the
// reader reports end of input. Filling the whole window matters for a
// token longer than one Read: each refill re-lexes the token from its
// start, so topping up a few bytes at a time would make that token cost
// quadratic time. At end of input it flips the inner lexer out of streaming
// mode so end-of-window conditions become definitive (token or syntax
// error).
func (cl *ChunkedLexer) refill(cp int) error {
	if cp > 0 {
		copy(cl.buf, cl.buf[cp:cl.n])
		cl.n -= cp
		cl.base += int64(cp)
	}
	if cl.n == len(cl.buf) {
		// A single token fills the whole window: grow so it can complete.
		grown := make([]byte, 2*len(cl.buf))
		copy(grown, cl.buf[:cl.n])
		cl.buf = grown
	}
	for from, empty := cl.n, 0; cl.n < len(cl.buf); {
		m, err := cl.r.Read(cl.buf[cl.n:])
		cl.n += m
		switch {
		case err == io.EOF:
			cl.eof = true
			cl.inner.streaming = false
			return nil
		case err != nil && cl.n > from:
			// Lex what arrived first; the next refill meets the error again.
			return nil
		case err != nil:
			return err
		case m == 0:
			if empty++; empty >= 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// InputOffset returns the global byte offset of the next unconsumed byte —
// at end of input, the document length.
func (cl *ChunkedLexer) InputOffset() int64 { return cl.base + int64(cl.inner.pos) }
