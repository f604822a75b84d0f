package eval

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// TREC interchange formats, so runs and judgments can round-trip with
// the standard trec_eval toolchain the paper evaluates with.
//
// Run format (one line per retrieved document):
//
//	<queryID> Q0 <docName> <rank> <score> <runTag>
//
// Qrels format:
//
//	<queryID> 0 <docName> <relevance>

// WriteRunTREC writes run in TREC format. Scores are synthesised from
// ranks (descending) when the caller only has ordered names; rank is
// 1-based.
func WriteRunTREC(w io.Writer, run Run, tag string) error {
	bw := bufio.NewWriter(w)
	ids := make([]string, 0, len(run))
	for id := range run {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for rank, doc := range run[id] {
			// Synthetic score: strictly decreasing with rank so
			// trec_eval reconstructs the same ordering.
			score := 1.0 / float64(rank+1)
			if _, err := fmt.Fprintf(bw, "%s Q0 %s %d %.6f %s\n", id, doc, rank+1, score, tag); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadRunTREC parses a TREC run file. Documents are ordered per query by
// descending score, ties broken by ascending rank (trec_eval's
// semantics); malformed lines are reported with their line number.
func ReadRunTREC(r io.Reader) (Run, error) {
	type entry struct {
		doc   string
		rank  int
		score float64
	}
	perQuery := make(map[string][]entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 {
			return nil, fmt.Errorf("eval: run line %d: %d fields, want 6", lineNo, len(fields))
		}
		rank, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("eval: run line %d: bad rank %q", lineNo, fields[3])
		}
		score, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("eval: run line %d: bad score %q", lineNo, fields[4])
		}
		perQuery[fields[0]] = append(perQuery[fields[0]], entry{doc: fields[2], rank: rank, score: score})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	run := make(Run, len(perQuery))
	for id, entries := range perQuery {
		// TREC semantics: order by descending score, ties by rank.
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].score != entries[j].score {
				return entries[i].score > entries[j].score
			}
			return entries[i].rank < entries[j].rank
		})
		docs := make([]string, len(entries))
		for i, e := range entries {
			docs[i] = e.doc
		}
		run[id] = docs
	}
	return run, nil
}

// WriteQrelsTREC writes qrels in TREC format (relevance 1 for every
// judged-relevant document; this reproduction has binary judgments).
func WriteQrelsTREC(w io.Writer, qrels Qrels) error {
	bw := bufio.NewWriter(w)
	for _, id := range qrels.Queries() {
		docs := make([]string, 0, len(qrels[id]))
		for d := range qrels[id] {
			docs = append(docs, d)
		}
		sort.Strings(docs)
		for _, d := range docs {
			if _, err := fmt.Fprintf(bw, "%s 0 %s 1\n", id, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadQrelsTREC parses a TREC qrels file; documents with relevance > 0
// are judged relevant, relevance 0 lines register the query without a
// judgment (so zero-relevant queries survive the round trip).
func ReadQrelsTREC(r io.Reader) (Qrels, error) {
	qrels := make(Qrels)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("eval: qrels line %d: %d fields, want 4", lineNo, len(fields))
		}
		relevance, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("eval: qrels line %d: bad relevance %q", lineNo, fields[3])
		}
		if _, ok := qrels[fields[0]]; !ok {
			qrels[fields[0]] = make(map[string]bool)
		}
		if relevance > 0 {
			qrels[fields[0]][fields[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return qrels, nil
}
