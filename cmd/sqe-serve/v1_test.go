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

// TestRejectsFormatV1: the readers of the stream format and of
// FormatV2's first revision are gone. A file that starts with either
// magic fails index.Open with the typed error, whose text says how to
// get a readable file, and sqe-serve -index on such a file exits
// non-zero printing it.
func TestRejectsFormatV1(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "sqe-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, magic := range map[string]string{"stream.idx": "SQEIX\x02", "v2-rev1.idx": "SQEBX\x01"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(magic), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := index.Open(path)
		if !errors.Is(err, index.ErrOldFormat) {
			t.Fatalf("index.Open of %s: %v, want ErrOldFormat", name, err)
		}
		if !strings.Contains(err.Error(), "re-index") || !strings.Contains(err.Error(), "-write-index") {
			t.Fatalf("%s: the error does not say how to re-index: %v", name, err)
		}
		out, err := exec.Command(bin, "-index", path, "-addr", "127.0.0.1:0").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("sqe-serve -index on %s: err = %v, want a non-zero exit\n%s", name, err, out)
		}
		if !strings.Contains(string(out), index.ErrOldFormat.Error()) {
			t.Fatalf("sqe-serve did not print the re-index error for %s:\n%s", name, out)
		}
	}
}
