package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
)

// TestRejectsFormatV1: the stream format's reader is gone. A file that
// starts with its magic fails index.Open with the typed error, whose
// text says how to get a readable file, and sqe-serve -index on such a
// file exits non-zero printing it.
func TestRejectsFormatV1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(path, []byte("SQEIX\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := index.Open(path)
	if !errors.Is(err, index.ErrFormatV1) {
		t.Fatalf("index.Open of a v1 file: %v, want ErrFormatV1", err)
	}
	if !strings.Contains(err.Error(), "re-index") || !strings.Contains(err.Error(), "-write-index") {
		t.Fatalf("the error does not say how to re-index: %v", err)
	}

	bin := filepath.Join(dir, "sqe-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-index", path, "-addr", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("sqe-serve -index on a v1 file: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), index.ErrFormatV1.Error()) {
		t.Fatalf("sqe-serve did not print the re-index error:\n%s", out)
	}
}
