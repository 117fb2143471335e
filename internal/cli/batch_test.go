package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/jobs/walstore"
)

// writeBatchDir creates a corpus directory: two valid docs, one potentially
// valid, one not-PV, one malformed, plus a non-XML file that must be
// skipped, and a nested subdirectory.
func writeBatchDir(t *testing.T) (dtdPath, dir string) {
	t.Helper()
	dir = t.TempDir()
	dtdPath = filepath.Join(dir, "schema", "fig1.dtd")
	if err := os.MkdirAll(filepath.Dir(dtdPath), 0o755); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "docs", "nested")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		dtdPath:                                  dtd.Figure1,
		filepath.Join(dir, "docs", "valid1.xml"): `<r><a><c>x</c><d></d></a></r>`,
		filepath.Join(sub, "valid2.xml"):         `<r><a><c>x</c><d></d></a></r>`,
		filepath.Join(dir, "docs", "pv.xml"):     `<r><a><b>A quick brown</b><c> fox</c> dog<e></e></a></r>`,
		filepath.Join(dir, "docs", "notpv.xml"):  `<r><a><b>x</b><e></e><c>y</c></a></r>`,
		filepath.Join(dir, "docs", "broken.xml"): `<r><a>`,
		filepath.Join(dir, "docs", "readme.txt"): `not xml`,
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dtdPath, filepath.Join(dir, "docs")
}

func TestBatchDirectory(t *testing.T) {
	dtdPath, docsDir := writeBatchDir(t)
	var out, errOut strings.Builder
	code := Batch([]string{"-dtd", dtdPath, "-root", "r", "-workers", "4", docsDir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"valid1.xml: valid",
		"valid2.xml: valid",
		"pv.xml: potentially valid (encoding incomplete)",
		"notpv.xml: NOT potentially valid",
		"broken.xml: malformed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stdout missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "readme.txt") {
		t.Errorf("non-XML file was checked:\n%s", text)
	}
	summary := errOut.String()
	if !strings.Contains(summary, "checked 5 documents (4 workers, 0 mmapped, 0 streamed): 3 potentially valid, 2 valid, 1 malformed") {
		t.Errorf("summary:\n%s", summary)
	}
	// The byte-path batch reports per-file throughput.
	if !strings.Contains(summary, "bytes/sec") || !strings.Contains(summary, "bytes/file avg") {
		t.Errorf("summary missing per-file throughput:\n%s", summary)
	}
}

func TestBatchQuietAllPV(t *testing.T) {
	dtdPath, docsDir := writeBatchDir(t)
	var out, errOut strings.Builder
	code := Batch([]string{"-dtd", dtdPath, "-root", "r", "-q",
		filepath.Join(docsDir, "valid1.xml"), filepath.Join(docsDir, "pv.xml")}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("quiet mode printed verdicts:\n%s", out.String())
	}
}

// TestBatchMmapAndPlainPaths runs the same corpus once with mmap forced on
// (threshold 1 byte) and once forced off (threshold -1): verdicts and
// counts must be identical, and the summary must report how many files
// were mapped.
func TestBatchMmapAndPlainPaths(t *testing.T) {
	dtdPath, docsDir := writeBatchDir(t)
	// A document big enough that mapping it is plausible in production too.
	big := `<r><a><c>` + strings.Repeat("A quick brown fox. ", 5000) + `</c><d></d></a></r>`
	if err := os.WriteFile(filepath.Join(docsDir, "big.xml"), []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(mmapFlag string) (string, string, int) {
		var out, errOut strings.Builder
		code := Batch([]string{"-dtd", dtdPath, "-root", "r", "-workers", "2", "-mmap", mmapFlag, docsDir}, &out, &errOut)
		return out.String(), errOut.String(), code
	}
	mOut, mSummary, mCode := run("1")
	pOut, pSummary, pCode := run("-1")
	if mCode != pCode {
		t.Fatalf("exit codes diverge: mmap=%d plain=%d", mCode, pCode)
	}
	if mOut != pOut {
		t.Errorf("verdicts diverge between mmap and plain read:\nmmap:\n%s\nplain:\n%s", mOut, pOut)
	}
	if !strings.Contains(mOut, "big.xml: valid") {
		t.Errorf("big document verdict missing:\n%s", mOut)
	}
	if !strings.Contains(mSummary, "6 mmapped") {
		t.Errorf("mmap summary should report 6 mapped files:\n%s", mSummary)
	}
	if !strings.Contains(pSummary, "0 mmapped") {
		t.Errorf("plain summary should report 0 mapped files:\n%s", pSummary)
	}
}

// TestBatchStreamAt routes the whole corpus through the bounded-memory
// reader path with a 1-byte threshold: verdicts keep their exit-code
// semantics, carry the full-validity bit, and the summary accounts the
// streamed files.
func TestBatchStreamAt(t *testing.T) {
	dtdPath, docsDir := writeBatchDir(t)
	var out, errOut strings.Builder
	code := Batch([]string{"-dtd", dtdPath, "-root", "r", "-stream-at", "1", docsDir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"valid1.xml: valid\n",
		"pv.xml: potentially valid (encoding incomplete)",
		"notpv.xml: NOT potentially valid",
		"broken.xml: malformed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stdout missing %q:\n%s", want, text)
		}
	}
	summary := errOut.String()
	if !strings.Contains(summary, "5 streamed") || !strings.Contains(summary, "checked 5 documents") ||
		!strings.Contains(summary, "3 potentially valid, 2 valid, 1 malformed") {
		t.Errorf("summary should account streamed files:\n%s", summary)
	}
}

func TestBatchUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := Batch(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code := Batch([]string{"-dtd", "x.dtd", "-root", "r", "/nonexistent-dir-xyz"}, &out, &errOut); code != 2 {
		t.Errorf("missing input: exit = %d, want 2", code)
	}
}

// TestCacheDirLeavesJobWALAlone runs batch and complete with -cache-dir
// on a directory whose job write-ahead log another process holds, then on
// a fresh one. The flag is a compiled-schema cache: both subcommands must
// succeed beside the lock holder, and neither may create <dir>/jobs.
func TestCacheDirLeavesJobWALAlone(t *testing.T) {
	dtdPath, docsDir := writeBatchDir(t)
	valid := filepath.Join(docsDir, "valid1.xml")
	pvDoc := filepath.Join(docsDir, "pv.xml")

	held := t.TempDir()
	wal, err := walstore.Open(filepath.Join(held, "jobs"), walstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	fresh := t.TempDir()

	for _, dir := range []string{held, fresh} {
		var out, errOut strings.Builder
		code := Batch([]string{"-dtd", dtdPath, "-root", "r", "-cache-dir", dir, valid, pvDoc}, &out, &errOut)
		if code != 0 || !strings.Contains(out.String(), "valid1.xml: valid") ||
			!strings.Contains(out.String(), "pv.xml: potentially valid (encoding incomplete)") {
			t.Errorf("batch -cache-dir %s: exit %d\nstdout:\n%s\nstderr:\n%s", dir, code, out.String(), errOut.String())
		}
		out.Reset()
		errOut.Reset()
		code = Complete([]string{"-dtd", dtdPath, "-root", "r", "-diff", "-cache-dir", dir, pvDoc}, &out, &errOut)
		if code != 0 || !strings.Contains(out.String(), "+<d> at /r/a[0]") {
			t.Errorf("complete -cache-dir %s: exit %d\nstdout:\n%s\nstderr:\n%s", dir, code, out.String(), errOut.String())
		}
	}
	if _, err := os.Stat(filepath.Join(fresh, "jobs")); !os.IsNotExist(err) {
		t.Errorf("a one-shot run created %s/jobs (stat err %v)", fresh, err)
	}
}
