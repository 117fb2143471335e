package xmltext

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzLexBytes asserts that on arbitrary input the two ways into the
// lexer agree exactly: a string read in place through View (Tokenize) and
// an owned copy of its bytes (TokenizeBytes) give the same token stream
// (kinds, names, data, attributes, positions) on acceptance and the same
// error text on rejection, and lexing leaves the copy unmodified. The
// checker's and the tree parser's string entry points ride on this.
func FuzzLexBytes(f *testing.F) {
	for _, seed := range differentialInputs {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := Tokenize(src)
		buf := []byte(src)
		got, gotErr := TokenizeBytes(buf)
		if string(buf) != src {
			t.Fatalf("lexing wrote into its input: %q became %q", src, buf)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch on %q\n  string: %v\n  bytes:  %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text mismatch on %q\n  string: %v\n  bytes:  %v", src, wantErr, gotErr)
			}
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("token mismatch on %q\n  string: %#v\n  bytes:  %#v", src, want, got)
		}
	})
}

// FuzzChunkedLexer asserts that on arbitrary input the sliding-window
// streaming lexer agrees exactly with the whole-buffer byte lexer at every
// window size — same token stream with global positions on acceptance, same
// error text on rejection. Tiny windows make every marker, char-ref and
// multi-byte rune straddle refill boundaries; this equivalence is what lets
// RunReader and /check/raw claim whole-buffer semantics on unbounded input.
func FuzzChunkedLexer(f *testing.F) {
	for _, seed := range differentialInputs {
		f.Add(seed)
	}
	for _, seed := range straddleInputs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := TokenizeBytes([]byte(src))
		for _, size := range []int{3, 7, 64, 4096} {
			got, gotErr := tokenizeChunked(strings.NewReader(src), size)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("buf=%d: error mismatch on %q\n  whole:   %v\n  chunked: %v", size, src, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("buf=%d: error text mismatch on %q\n  whole:   %v\n  chunked: %v", size, src, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("buf=%d: token mismatch on %q\n  whole:   %#v\n  chunked: %#v", size, src, want, got)
			}
		}
	})
}

// FuzzLexVsReference holds ByteLexer to the reference lexer
// (refByteLexer), which tracks line and column per byte and decodes every
// name rune: on arbitrary input both give the same tokens (kind, name,
// data, attributes, offset, line, column and end) and the same error
// text. FuzzLexBytes cannot catch a position or message that moves in the
// one lexer both of its sides run.
func FuzzLexVsReference(f *testing.F) {
	for _, seed := range differentialInputs {
		f.Add(seed)
	}
	for _, seed := range straddleInputs() {
		f.Add(seed)
	}
	for _, tc := range positionCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := refTokenizeBytes([]byte(src))
		got, gotErr := TokenizeBytes([]byte(src))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch on %q\n  reference: %v\n  lexer:     %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text mismatch on %q\n  reference: %v\n  lexer:     %v", src, wantErr, gotErr)
			}
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("token mismatch on %q\n  reference: %#v\n  lexer:     %#v", src, want, got)
		}
	})
}
