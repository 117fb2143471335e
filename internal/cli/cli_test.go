package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtd"
)

// writeFixtures creates a temp dir with the Figure 1 DTD and Example 1's
// documents, returning the paths.
func writeFixtures(t *testing.T) (dtdPath, wPath, sPath string) {
	t.Helper()
	dir := t.TempDir()
	dtdPath = filepath.Join(dir, "fig1.dtd")
	wPath = filepath.Join(dir, "w.xml")
	sPath = filepath.Join(dir, "s.xml")
	files := map[string]string{
		dtdPath: dtd.Figure1,
		wPath:   `<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>`,
		sPath:   `<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`,
	}
	for path, content := range files {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dtdPath, wPath, sPath
}

func TestPVCheckVerdicts(t *testing.T) {
	dtdPath, wPath, sPath := writeFixtures(t)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", wPath, sPath}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1 (w is not PV)", code)
	}
	text := out.String()
	if !strings.Contains(text, "w.xml: NOT potentially valid") {
		t.Errorf("missing w verdict:\n%s", text)
	}
	if !strings.Contains(text, "s.xml: potentially valid (encoding incomplete)") {
		t.Errorf("missing s verdict:\n%s", text)
	}
	if !strings.Contains(errOut.String(), "class non-recursive") {
		t.Errorf("missing schema info:\n%s", errOut.String())
	}
}

func TestPVCheckComplete(t *testing.T) {
	dtdPath, _, sPath := writeFixtures(t)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-complete", sPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "completion (+2 elements)") {
		t.Errorf("missing completion:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "<d>A quick brown</d>") {
		t.Errorf("completion should wrap b's text in d:\n%s", out.String())
	}
}

func TestPVCheckStream(t *testing.T) {
	dtdPath, wPath, sPath := writeFixtures(t)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-stream-at", "0", wPath, sPath}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "s.xml: potentially valid") {
		t.Errorf("stream verdicts:\n%s", out.String())
	}
}

// TestPVCheckStreamAt pins the auto-streaming threshold: with -stream-at 1
// every file takes the bounded-memory reader path, and the verdicts —
// full-validity bit and malformed reporting included — match the
// in-memory checker's.
func TestPVCheckStreamAt(t *testing.T) {
	dtdPath, wPath, sPath := writeFixtures(t)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-stream-at", "1", wPath, sPath}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1 (w is not PV)\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "w.xml: NOT potentially valid") {
		t.Errorf("streamed verdicts:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "s.xml: potentially valid (encoding incomplete)") {
		t.Errorf("reader path must report the full verdict:\n%s", out.String())
	}

	// A valid document streams as valid, and a malformed one reports the
	// way a loaded malformed document does.
	dir := t.TempDir()
	ext, bad := filepath.Join(dir, "ext.xml"), filepath.Join(dir, "bad.xml")
	os.WriteFile(ext, []byte(`<r><a><b><d>x</d></b><c>y</c><d>z<e></e></d></a></r>`), 0o644)
	os.WriteFile(bad, []byte(`<r><a></r>`), 0o644)
	out.Reset()
	errOut.Reset()
	if code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-stream-at", "0", ext, bad}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2 (bad.xml is malformed)", code)
	}
	if !strings.Contains(out.String(), "ext.xml: valid") || !strings.Contains(errOut.String(), "bad.xml: ") {
		t.Errorf("streamed valid/malformed verdicts:\nstdout:\n%s\nstderr:\n%s", out.String(), errOut.String())
	}

	// A negative threshold disables auto-streaming: the full checker runs
	// and the valid document gets its "valid" verdict back.
	out.Reset()
	if code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-stream-at", "-1", sPath}, &out, &errOut); code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "s.xml: potentially valid (encoding incomplete)") {
		t.Errorf("non-streamed verdict:\n%s", out.String())
	}
}

// TestPVCheckViolationBeforeMalformed pins the exit code of a file that is
// not potentially valid before it turns out malformed: loaded or streamed,
// the check stops at the violation, so the file reads as not potentially
// valid (exit 1) rather than malformed (exit 2).
func TestPVCheckViolationBeforeMalformed(t *testing.T) {
	dtdPath, _, _ := writeFixtures(t)
	bad := filepath.Join(t.TempDir(), "bad.xml")
	os.WriteFile(bad, []byte(`<r><zzz></zzz>`), 0o644)
	for _, streamAt := range []string{"-1", "0"} {
		var out, errOut strings.Builder
		code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-stream-at", streamAt, bad}, &out, &errOut)
		if code != 1 || !strings.Contains(out.String(), "bad.xml: NOT potentially valid") {
			t.Errorf("-stream-at %s: exit=%d\nstdout:\n%s\nstderr:\n%s", streamAt, code, out.String(), errOut.String())
		}
	}
}

func TestPVCheckValidVerdict(t *testing.T) {
	dtdPath, _, _ := writeFixtures(t)
	dir := t.TempDir()
	ext := filepath.Join(dir, "ext.xml")
	os.WriteFile(ext, []byte(`<r><a><b><d>x</d></b><c>y</c><d>z<e></e></d></a></r>`), 0o644)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", ext}, &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "ext.xml: valid") {
		t.Errorf("exit=%d out=%s", code, out.String())
	}
}

func TestPVCheckUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := PVCheck(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code := PVCheck([]string{"-dtd", "x.dtd", "-xsd", "y.xsd", "-root", "r", "doc"}, &out, &errOut); code != 2 {
		t.Errorf("both schemas: exit = %d, want 2", code)
	}
	if code := PVCheck([]string{"-dtd", "/nonexistent.dtd", "-root", "r", "doc"}, &out, &errOut); code != 2 {
		t.Errorf("missing dtd: exit = %d, want 2", code)
	}
	// -stream is gone: -stream-at 0 streams every file.
	dtdPath, _, sPath := writeFixtures(t)
	if code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "-stream", sPath}, &out, &errOut); code != 2 {
		t.Errorf("-stream: exit = %d, want 2", code)
	}
}

func TestPVCheckMissingDocument(t *testing.T) {
	dtdPath, _, _ := writeFixtures(t)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", "/nonexistent.xml"}, &out, &errOut)
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestPVCheckMalformedDocument(t *testing.T) {
	dtdPath, _, _ := writeFixtures(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xml")
	os.WriteFile(bad, []byte(`<r><a></r>`), 0o644)
	var out, errOut strings.Builder
	code := PVCheck([]string{"-dtd", dtdPath, "-root", "r", bad}, &out, &errOut)
	if code != 2 {
		t.Errorf("exit = %d, want 2 (well-formedness error)", code)
	}
}

func TestDTDInfoBasics(t *testing.T) {
	dtdPath, _, _ := writeFixtures(t)
	var out, errOut strings.Builder
	code := DTDInfo([]string{"-dtd", dtdPath, "-dag", "-reach", "-grammar"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"elements: 7",
		"k (size measure): 19",
		"class: non-recursive",
		"DAG(a) entry=[0]",
		"0(PCDATA, e)", // Figure 4's d star-group
		"reachability",
		"G(T, r):",
		"G'(T, r):",
		"nt_a -> hat_a", // the relaxation rules
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dtdinfo output missing %q", want)
		}
	}
}

func TestDTDInfoClassification(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t2.dtd")
	os.WriteFile(path, []byte(dtd.T2), 0o644)
	var out, errOut strings.Builder
	if code := DTDInfo([]string{"-dtd", path}, &out, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if !strings.Contains(out.String(), "class: PV-strong recursive") {
		t.Errorf("missing classification:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PV-strong recursive elements: [a]") {
		t.Errorf("missing strong elements:\n%s", out.String())
	}
}

func TestDTDInfoUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := DTDInfo(nil, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if code := DTDInfo([]string{"-dtd", "/nonexistent.dtd"}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}
