package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// prepMeta describes a prepared data directory.
type prepMeta struct {
	PrepareS   float64 `json:"prepare_s"`
	Docs       int     `json:"docs"`
	Queries    int     `json:"queries"`
	Articles   int     `json:"articles"`
	BlockSize  int     `json:"block_size"`
	IndexBytes int64   `json:"index_bytes"`
}

// oracleTable holds, per request kind and query ID, the ranking an
// in-memory, unsharded, unpruned engine returns.
type oracleTable struct {
	Manual   map[string][]ranked `json:"manual"`
	Auto     map[string][]ranked `json:"auto"`
	Baseline map[string][]ranked `json:"baseline"`
}

func (o *oracleTable) lookup(kind, id string) []ranked {
	switch kind {
	case kindManual:
		return o.Manual[id]
	case kindAuto:
		return o.Auto[id]
	}
	return o.Baseline[id]
}

// prepared is what a run reads back from the data directory.
type prepared struct {
	Dir string
	// ObtainS is what this run paid for the data: generating it on a
	// checkout's first run, reading it back afterwards.
	ObtainS float64
	Meta    prepMeta
	Queries []benchQuery
	Oracle  oracleTable
}

// buildDir is where everything the benchmark generates lives: the
// binary, the Go caches, the prepared data and each run's scratch. It is
// relative to the checkout root, which the launcher makes the working
// directory.
const buildDir = ".bench_build"

// ensurePrepared returns the prepared data, generating it on first use.
// The directory is keyed by the running binary's hash, so data written
// by another commit's index or KB encoder is never read back.
func ensurePrepared() (*prepared, error) {
	begin := time.Now()
	key, err := binaryHash()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(buildDir, "e2e-data-"+key)
	if _, err := os.Stat(filepath.Join(dir, fileMeta)); err != nil {
		tmp, err := os.MkdirTemp(buildDir, "e2e-data-tmp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		// Data of other builds of this checkout will not be read again.
		stale, _ := filepath.Glob(filepath.Join(buildDir, "e2e-data-[0-9a-f]*"))
		for _, d := range stale {
			os.RemoveAll(d)
		}
		logf("preparing data (one-off, ~10 s) …")
		start := time.Now()
		meta, err := sutPrepare(tmp)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		meta.PrepareS = time.Since(start).Seconds()
		if err := writeJSON(filepath.Join(tmp, fileMeta), meta); err != nil {
			return nil, err
		}
		// Losing the rename to a concurrent run is fine: its data is the same.
		if err := os.Rename(tmp, dir); err != nil {
			if _, serr := os.Stat(filepath.Join(dir, fileMeta)); serr != nil {
				return nil, err
			}
		}
	}
	p := &prepared{Dir: dir}
	if err := readJSON(filepath.Join(dir, fileMeta), &p.Meta); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, fileQueries), &p.Queries); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, fileOracle), &p.Oracle); err != nil {
		return nil, err
	}
	p.ObtainS = time.Since(begin).Seconds()
	return p, nil
}

func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeDocs stores the document stream one JSON object per line.
func writeDocs(path string, docs []document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, d := range docs {
		if err := enc.Encode(d); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDocs(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	for {
		var d document
		if err := dec.Decode(&d); err == io.EOF {
			return docs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total, nil
}
