package search

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Parse reads a structured query in Indri-like syntax and returns its
// AST. Supported grammar (whitespace-separated):
//
//	query    := node+                      // top level: #combine of nodes
//	node     := term
//	          | "#1(" term+ ")"            // exact ordered phrase
//	          | "#uwN(" term+ ")"          // unordered window of width N
//	          | "#combine(" node+ ")"
//	          | "#weight(" (weight node)+ ")"
//	          | "\"" term+ "\""            // quoted phrase = #1
//
// Bare terms and phrase/window constituents are run through the
// analyzer, so "Cable Cars" and "cable car" parse to the same leaf; a
// term that analyzes to nothing (a stopword) is dropped. Weights are
// decimal numbers.
func Parse(a analysis.Analyzer, input string) (Node, error) {
	p := &parser{a: a, in: input}
	nodes, err := p.parseNodes(false)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.rest())
	}
	switch len(nodes) {
	case 0:
		return Weighted{}, nil
	case 1:
		return nodes[0], nil
	default:
		return Combine(nodes...), nil
	}
}

type parser struct {
	a   analysis.Analyzer
	in  string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.in) }

func (p *parser) rest() string {
	r := p.in[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "…"
	}
	return r
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("search: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// asciiSpace reports whether b is an ASCII whitespace byte. Byte-level
// scanning must never treat UTF-8 continuation bytes (≥ 0x80) as
// whitespace — 0x85 (NEL) famously *is* unicode space as a rune, but
// inside a multi-byte character it is part of a word.
func asciiSpace(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\r', '\v', '\f':
		return true
	}
	return false
}

func (p *parser) skipSpace() {
	for !p.eof() && asciiSpace(p.in[p.pos]) {
		p.pos++
	}
}

// parseNodes reads nodes until EOF or, when insideParens, a ')'.
func (p *parser) parseNodes(insideParens bool) ([]Node, error) {
	var nodes []Node
	for {
		p.skipSpace()
		if p.eof() {
			return nodes, nil
		}
		if p.in[p.pos] == ')' {
			if insideParens {
				return nodes, nil
			}
			return nil, p.errorf("unbalanced ')'")
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		if n != nil {
			nodes = append(nodes, n)
		}
	}
}

func (p *parser) parseNode() (Node, error) {
	p.skipSpace()
	switch {
	case p.eof():
		return nil, p.errorf("unexpected end of query")
	case p.in[p.pos] == '#':
		return p.parseOperator()
	case p.in[p.pos] == '"':
		return p.parseQuoted()
	default:
		return p.parseTerm()
	}
}

// parseOperator handles #1(...), #uwN(...), #combine(...), #weight(...).
func (p *parser) parseOperator() (Node, error) {
	start := p.pos
	p.pos++ // '#'
	name := p.readWhile(func(b byte) bool {
		return b >= 'a' && b <= 'z' || b >= '0' && b <= '9'
	})
	if p.eof() || p.in[p.pos] != '(' {
		p.pos = start
		return nil, p.errorf("operator #%s missing '('", name)
	}
	p.pos++ // '('
	var node Node
	var err error
	switch {
	case name == "combine":
		var children []Node
		children, err = p.parseNodes(true)
		if err == nil {
			node = Combine(children...)
		}
	case name == "weight":
		node, err = p.parseWeightBody()
	case name == "1" || name == "od1":
		var terms []string
		terms, err = p.parseTermList()
		if err == nil && len(terms) > 0 {
			node = phraseOrTerm(terms)
		}
	case strings.HasPrefix(name, "uw"):
		width, convErr := strconv.Atoi(name[2:])
		if convErr != nil || width <= 0 {
			return nil, p.errorf("bad window operator #%s", name)
		}
		var terms []string
		terms, err = p.parseTermList()
		if err == nil && len(terms) > 0 {
			if len(terms) == 1 {
				node = Term{Text: terms[0]}
			} else {
				node = Unordered{Terms: terms, Width: width}
			}
		}
	default:
		return nil, p.errorf("unknown operator #%s", name)
	}
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.eof() || p.in[p.pos] != ')' {
		return nil, p.errorf("operator #%s missing ')'", name)
	}
	p.pos++
	return node, nil
}

// parseWeightBody reads (weight node)+ pairs.
func (p *parser) parseWeightBody() (Node, error) {
	var weights []float64
	var nodes []Node
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errorf("#weight missing ')'")
		}
		if p.in[p.pos] == ')' {
			// #weight() is the canonical empty query (it is what an
			// all-stopword query renders to), so it must re-parse.
			return Weight(weights, nodes), nil
		}
		w, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		if n == nil {
			// The child analyzed away (stopword term): drop the pair.
			continue
		}
		weights = append(weights, w)
		nodes = append(nodes, n)
	}
}

func (p *parser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	tok := p.readWhile(func(b byte) bool {
		return b >= '0' && b <= '9' || b == '.' || b == '-' || b == '+' || b == 'e' || b == 'E'
	})
	if tok == "" {
		return 0, p.errorf("expected a weight")
	}
	w, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		p.pos = start
		return 0, p.errorf("bad weight %q", tok)
	}
	return w, nil
}

// parseQuoted reads "..." as an exact phrase.
func (p *parser) parseQuoted() (Node, error) {
	p.pos++ // opening quote
	start := p.pos
	for !p.eof() && p.in[p.pos] != '"' {
		p.pos++
	}
	if p.eof() {
		return nil, p.errorf("unterminated quote")
	}
	inner := p.in[start:p.pos]
	p.pos++ // closing quote
	terms := p.a.AnalyzeTerms(inner)
	if len(terms) == 0 {
		return nil, nil // empty / all-stopword quote drops out
	}
	return phraseOrTerm(terms), nil
}

// parseTermList reads raw words until ')' and analyzes them together, so
// multi-word constituents behave like quoted phrases.
func (p *parser) parseTermList() ([]string, error) {
	start := p.pos
	for !p.eof() && p.in[p.pos] != ')' {
		if p.in[p.pos] == '#' || p.in[p.pos] == '(' {
			return nil, p.errorf("operators cannot nest inside proximity operators")
		}
		p.pos++
	}
	// An empty or all-stopword operator body analyzes to nothing; like a
	// bare stopword term, the whole operator then drops out of the query
	// (and "#1()" — the render of an empty phrase — re-parses cleanly).
	return p.a.AnalyzeTerms(p.in[start:p.pos]), nil
}

// parseTerm reads one bare word and analyzes it; stopwords vanish
// (returning nil, nil).
func (p *parser) parseTerm() (Node, error) {
	word := p.readWhile(func(b byte) bool {
		return b >= 0x80 || (!asciiSpace(b) && b != ')' && b != '(' && b != '"' && b != '#')
	})
	if word == "" {
		return nil, p.errorf("expected a term, found %q", p.rest())
	}
	terms := p.a.AnalyzeTerms(word)
	switch len(terms) {
	case 0:
		return nil, nil // stopword or punctuation: drops out
	case 1:
		return Term{Text: terms[0]}, nil
	default:
		// A single input token can analyze to several terms
		// ("cable-car"): treat as an exact phrase.
		return Phrase{Terms: terms}, nil
	}
}

func (p *parser) readWhile(ok func(byte) bool) string {
	start := p.pos
	for !p.eof() && ok(p.in[p.pos]) {
		p.pos++
	}
	return p.in[start:p.pos]
}

// phraseOrTerm collapses analyzed term lists into the smallest node.
func phraseOrTerm(terms []string) Node {
	switch len(terms) {
	case 0:
		return Phrase{}
	case 1:
		return Term{Text: terms[0]}
	default:
		return Phrase{Terms: terms}
	}
}
