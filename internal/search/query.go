// Package search implements the retrieval model of the paper's Section
// 2.3: Indri-style structured queries evaluated under a query-likelihood
// language model with Dirichlet smoothing, combined through an
// inference-network #weight operator.
//
// A query is a tree. Leaves are single terms or exact ordered phrases
// (titles are matched "as a n-gram of consecutive terms"). Interior
// nodes combine children with normalised weights; the document score is
//
//	score(D) = Σ_i ŵ_i · score_i(D),   ŵ_i = w_i / Σ w
//
// applied recursively, with leaf scores log P(leaf|D) under Dirichlet
// smoothing: P(w|D) = (tf_{w,D} + μ·P(w|C)) / (|D| + μ).
package search

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
)

// Node is a node of a structured query. Implementations: Term, Phrase,
// Weighted.
type Node interface {
	// String renders the node in Indri-like syntax.
	String() string
	node()
}

// Term is a single already-analyzed term leaf.
type Term struct {
	Text string
}

func (t Term) node()          {}
func (t Term) String() string { return t.Text }

// Phrase is an exact ordered phrase leaf (Indri's #1 window) over
// already-analyzed terms.
type Phrase struct {
	Terms []string
}

func (p Phrase) node()          {}
func (p Phrase) String() string { return "#1(" + strings.Join(p.Terms, " ") + ")" }

// Unordered is an unordered proximity leaf (Indri's #uwN): all terms
// within a window of Width token positions, any order. The paper's
// feature function explicitly covers unordered term proximity.
type Unordered struct {
	Terms []string
	// Width is the window size in tokens; values below len(Terms) can
	// never match.
	Width int
}

func (u Unordered) node() {}

func (u Unordered) String() string {
	return fmt.Sprintf("#uw%d(%s)", u.Width, strings.Join(u.Terms, " "))
}

// WindowOfTerms returns an analysed title as an unordered window of the
// given slack (width = #terms + slack), a looser alternative to
// PhraseOfTerms; a one-term title collapses to a Term and an empty one
// to an empty Phrase. The node shares terms, which must not be modified
// afterwards.
func WindowOfTerms(terms []string, slack int) Node {
	switch len(terms) {
	case 0:
		return Phrase{}
	case 1:
		return Term{Text: terms[0]}
	default:
		return Unordered{Terms: terms, Width: len(terms) + slack}
	}
}

// Child is a weighted child of a Weighted node.
type Child struct {
	Weight float64
	Node   Node
}

// Weighted combines children with normalised weights (#weight). Children
// with non-positive weight are ignored at scoring time.
type Weighted struct {
	Children []Child
}

func (w Weighted) node() {}

func (w Weighted) String() string {
	var sb strings.Builder
	sb.WriteString("#weight(")
	for i, c := range w.Children {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.4g %s", c.Weight, c.Node.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Combine builds an equal-weight combination (#combine) of nodes.
func Combine(nodes ...Node) Weighted {
	ch := make([]Child, len(nodes))
	for i, n := range nodes {
		ch[i] = Child{Weight: 1, Node: n}
	}
	return Weighted{Children: ch}
}

// Weight builds a #weight node from parallel weights and nodes; the two
// slices must have equal length.
func Weight(weights []float64, nodes []Node) Weighted {
	if len(weights) != len(nodes) {
		panic(fmt.Sprintf("search: Weight: %d weights for %d nodes", len(weights), len(nodes)))
	}
	ch := make([]Child, len(nodes))
	for i := range nodes {
		ch[i] = Child{Weight: weights[i], Node: nodes[i]}
	}
	return Weighted{Children: ch}
}

// BagOfWords analyzes free text and returns a #combine of its terms, the
// plain query-likelihood form used for the user's raw query (QL_Q).
// Returns a Weighted with no children when the text analyzes to nothing.
func BagOfWords(a analysis.Analyzer, text string) Weighted {
	terms := a.AnalyzeTerms(text)
	nodes := make([]Node, len(terms))
	for i, t := range terms {
		nodes[i] = Term{Text: t}
	}
	return Combine(nodes...)
}

// PhraseOfTerms returns an analysed title as a phrase leaf for exact
// n-gram matching; a one-term title collapses to a Term and an empty one
// to an empty Phrase. The node shares terms, which must not be modified
// afterwards.
func PhraseOfTerms(terms []string) Node {
	switch len(terms) {
	case 0:
		return Phrase{}
	case 1:
		return Term{Text: terms[0]}
	default:
		return Phrase{Terms: terms}
	}
}

// IsEmpty reports whether the node matches nothing: an empty phrase, an
// empty term, or a Weighted whose positive-weight children are all empty.
func IsEmpty(n Node) bool {
	switch x := n.(type) {
	case Term:
		return x.Text == ""
	case Phrase:
		return len(x.Terms) == 0
	case Unordered:
		return len(x.Terms) == 0
	case Weighted:
		for _, c := range x.Children {
			if c.Weight > 0 && !IsEmpty(c.Node) {
				return false
			}
		}
		return true
	default:
		return true
	}
}
