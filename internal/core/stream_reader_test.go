package core

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dtd"
)

// repeatReader streams header + body×count + footer without materializing
// the document: the synthetic multi-hundred-MB inputs the bounded-memory
// tests validate. Read never allocates.
type repeatReader struct {
	header, body, footer []byte
	count                int
	phase                int // 0=header 1=body 2=footer 3=done
	off                  int
	emitted              int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		var cur []byte
		switch r.phase {
		case 0:
			cur = r.header
		case 1:
			cur = r.body
		case 2:
			cur = r.footer
		default:
			if total > 0 {
				return total, nil
			}
			return 0, io.EOF
		}
		n := copy(p, cur[r.off:])
		total += n
		r.off += n
		p = p[n:]
		if r.off == len(cur) {
			r.off = 0
			switch r.phase {
			case 0:
				r.phase = 1
			case 1:
				if r.emitted++; r.emitted >= r.count {
					r.phase = 2
				}
			case 2:
				r.phase = 3
			}
		}
	}
	return total, nil
}

func (r *repeatReader) size() int64 {
	return int64(len(r.header)) + int64(len(r.body))*int64(r.count) + int64(len(r.footer))
}

const readerTestDTD = `<!ELEMENT log (entry)*>
<!ELEMENT entry (msg, code)>
<!ELEMENT msg (#PCDATA)>
<!ELEMENT code (#PCDATA)>`

func newRepeatDoc(count int) *repeatReader {
	return &repeatReader{
		header: []byte(`<log>`),
		body:   []byte(`<entry><msg>all systems nominal &amp; green</msg><code>200</code></entry>`),
		footer: []byte(`</log>`),
		count:  count,
	}
}

// TestRunReaderMatchesRunBytes pins the reader path's verdicts to the
// whole-buffer path on the shared fixtures, valid and invalid alike.
func TestRunReaderMatchesRunBytes(t *testing.T) {
	s := MustCompile(dtd.MustParse(readerTestDTD), "log", Options{})
	docs := []string{
		`<log></log>`,
		`<log><entry><msg>m</msg><code>1</code></entry></log>`,
		`<log><entry><msg>m</msg></entry></log>`,       // missing <code>
		`<log><entry><code>1</code></entry></log>`,     // out of order
		`<log><bogus/></log>`,                          // undeclared element
		`<log><entry><msg>m</msg><code>1</code></log>`, // mismatched end tag
		`<log>`,
	}
	c := s.NewStreamChecker()
	for _, doc := range docs {
		want := s.NewStreamChecker().RunBytes([]byte(doc))
		got := c.RunReaderBuffer(strings.NewReader(doc), 16)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Errorf("%q:\n  bytes:  %v\n  reader: %v", doc, want, got)
		}
		if IsViolation(want) != IsViolation(got) {
			t.Errorf("%q: violation classification diverged", doc)
		}
	}
}

// TestRunReaderBoundedMemory pins the tentpole claim: validating a ~128MB
// synthetic document through RunReader allocates O(window + depth), not
// O(document). The document is streamed from a generator so the test itself
// holds no large buffer, and total allocation across the run is asserted to
// stay under 8MB — two orders of magnitude below the document size.
func TestRunReaderBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large synthetic document; skipped under -short")
	}
	s := MustCompile(dtd.MustParse(readerTestDTD), "log", Options{})
	c := s.NewStreamChecker()

	// Warm-up run: populate the checker's window, recognizer freelist and
	// scratch so the measured run sees the pooled steady state.
	if err := c.RunReader(newRepeatDoc(1000)); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	doc := newRepeatDoc(1_850_000) // ~129MB
	if doc.size() < 128<<20 {
		t.Fatalf("synthetic document too small: %d bytes", doc.size())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.RunReader(doc); err != nil {
		t.Fatalf("RunReader: %v", err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("document %dMB, total allocated %dKB", doc.size()>>20, allocated>>10)
	if allocated > 8<<20 {
		t.Fatalf("RunReader allocated %dMB over a %dMB document; the reader path must not allocate O(n)",
			allocated>>20, doc.size()>>20)
	}
}

// TestRunReaderGzipComposition mirrors the /check/raw inflate path: the
// checker sits behind any io.Reader, so a decompressing reader composes for
// free. (Plain bytes.Reader here; the HTTP tests exercise real gzip.)
func TestRunReaderGzipComposition(t *testing.T) {
	s := MustCompile(dtd.MustParse(readerTestDTD), "log", Options{})
	var buf bytes.Buffer
	buf.WriteString(`<log><entry><msg>x</msg><code>0</code></entry></log>`)
	if err := s.NewStreamChecker().RunReader(&buf); err != nil {
		t.Fatalf("RunReader: %v", err)
	}
}
