package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtd"
)

func TestDocRoot(t *testing.T) {
	d := dtd.MustParse(dtd.Figure1)
	if got, err := docRoot(d, ""); err != nil || got != d.Order[0] {
		t.Errorf("default root: %q, %v; want %q", got, err, d.Order[0])
	}
	if got, err := docRoot(d, "a"); err != nil || got != "a" {
		t.Errorf("-root a: %q, %v", got, err)
	}
	if _, err := docRoot(d, "bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("-root bogus: %v; want an error naming it", err)
	}
	empty, err := dtd.Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := docRoot(empty, ""); err == nil {
		t.Error("empty DTD: no error")
	}
}

// TestDocUsageErrors runs the command on an undeclared -root and on an
// empty DTD file, with and without -stream: each must exit 2 with a
// usage error, not a panic (which also exits 2).
func TestDocUsageErrors(t *testing.T) {
	if os.Getenv("PVGEN_TEST_MAIN") == "1" {
		os.Args = append([]string{"pvgen"}, flag.Args()...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	fig := filepath.Join(dir, "fig.dtd")
	empty := filepath.Join(dir, "empty.dtd")
	if err := os.WriteFile(fig, []byte(dtd.Figure1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"doc", "-dtd", fig, "-root", "bogus"},
		{"doc", "-dtd", fig, "-root", "bogus", "-stream", "-bytes", "1K"},
		{"doc", "-dtd", empty},
		{"doc", "-dtd", empty, "-stream", "-bytes", "1K"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestDocUsageErrors$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "PVGEN_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v; want exit status 2", args, err)
		}
		if out := stderr.String(); strings.Contains(out, "panic") || !strings.Contains(out, "pvgen: ") || !strings.Contains(out, "usage:") {
			t.Errorf("%v: stderr %q; want a pvgen error and the usage", args, out)
		}
	}
}
