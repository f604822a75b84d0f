package index

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// The unified on-disk entry points. Every index file is opened through
// Open — which checks the header magic — and written through
// WriteFile/Builder.WriteFile, which take an explicit Format and commit
// atomically (temp + fsync + rename). The encoder and decoder behind them (encodeV2/openV2
// in v2.go) are package-internal; README.md carries the migration table
// from the old exported Encode/Decode pair.

// Format selects an on-disk index encoding.
type Format int

const (
	// FormatV2 is the block-compressed format ("SQEBX"): sectioned
	// layout (doc table, term dictionary, block directory, postings
	// blocks) designed to be mmap'd. Open returns instantly after
	// validating the metadata sections and checksumming the blocks;
	// postings decode lazily per term or, under a streaming cursor, per
	// block, and the block directory carries each block's last document
	// (what a cursor skips undecoded blocks by) and the bound summaries
	// that vouch for the whole-list bounds.
	FormatV2 Format = 2
)

// ErrFormatV1 is what Open returns (wrapped, with the path) for a file
// in the original stream format. Its reader and writer were removed;
// the corpus has to be indexed again.
var ErrFormatV1 = errors.New(`index: FormatV1 ("SQEIX") files are no longer supported: re-index the corpus and write it as FormatV2 (index.WriteFile, or sqe-serve -write-index)`)

// magicV1 is the prefix both revisions of the removed format started
// with; the sixth header byte was its revision.
const magicV1 = "SQEIX"

// String implements fmt.Stringer.
func (f Format) String() string {
	if f == FormatV2 {
		return "v2"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// openOptions collects Open's behaviour switches.
type openOptions struct {
	verify bool
}

// OpenOption customises Open.
type OpenOption func(*openOptions)

// WithVerify makes Open of a FormatV2 file decode and validate every
// postings block up front instead of lazily, failing Open on the first
// inconsistency. This forfeits the instant-startup property and is
// meant for files of untrusted provenance and for integrity tooling;
// the default validation (metadata cross-checks + a full CRC scan)
// already rejects any flip/truncate corruption.
func WithVerify() OpenOption {
	return func(o *openOptions) { o.verify = true }
}

// Open maps a FormatV2 index file and decodes postings lazily per term.
// Close the returned index when done. A FormatV1 file fails with
// ErrFormatV1.
func Open(path string, opts ...OpenOption) (*Index, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	magic, err := sniffMagic(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasPrefix(magic, magicV1):
		return nil, fmt.Errorf("%s: %w", path, ErrFormatV1)
	case magic != string(indexMagicV2):
		return nil, fmt.Errorf("%s: not an index file (magic %q)", path, magic)
	}
	data, closeFn, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := openV2(data, closeFn)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if o.verify {
		ix.materializeAll()
		if err := ix.Err(); err != nil {
			ix.Close()
			return nil, fmt.Errorf("%s: verify: %w", path, err)
		}
	}
	return ix, nil
}

// sniffMagic reads the 6-byte header that identifies the format.
func sniffMagic(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	head := make([]byte, len(indexMagicV2))
	n, err := f.Read(head)
	if n < len(head) {
		if err == nil {
			err = fmt.Errorf("short file")
		}
		return "", fmt.Errorf("%s: reading magic: %w", path, err)
	}
	return string(head), nil
}

// WriteFile writes ix to path in the given format, atomically: the
// bytes land in a temp file in the target directory, are fsynced, and
// replace path via rename, so a crash mid-write can never leave a
// half-written index behind the path.
func WriteFile(path string, ix *Index, format Format) error {
	if format != FormatV2 {
		return fmt.Errorf("index: unknown format %v", format)
	}
	return writeAtomic(path, func(w io.Writer) error { return encodeV2(w, ix) })
}

// writeAtomic commits what write produces to path: temp file in the
// target directory, fsync, rename.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sqe-index-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteFile builds the index and writes it to path in one step,
// returning the built index. The Builder must not be used afterwards
// (same contract as Build).
func (b *Builder) WriteFile(path string, format Format) (*Index, error) {
	ix := b.Build()
	if err := WriteFile(path, ix, format); err != nil {
		return nil, err
	}
	return ix, nil
}

// Document is one input document for Build.
type Document struct {
	Name string
	Text string
}

// Build indexes docs with the given analyzer — the convenience form of
// the NewBuilder/Add/Build cycle for callers that already hold the
// corpus in memory.
func Build(a analysis.Analyzer, docs []Document) *Index {
	b := NewBuilder(a)
	for _, d := range docs {
		b.Add(d.Name, d.Text)
	}
	return b.Build()
}
